package bt

import (
	"testing"
	"time"
)

func TestRateEstimatorBasic(t *testing.T) {
	r := NewRateEstimator(10 * time.Second)
	r.Add(1*time.Second, 1000)
	r.Add(2*time.Second, 1000)
	// 2000 bytes in a 10s window = 200 B/s.
	if got := r.Rate(2 * time.Second); got != 200 {
		t.Errorf("Rate = %v, want 200", got)
	}
}

func TestRateEstimatorSlidesWindow(t *testing.T) {
	r := NewRateEstimator(10 * time.Second)
	r.Add(1*time.Second, 1000)
	r.Add(5*time.Second, 1000)
	// At t=12s the first sample (t=1s) has left the window.
	if got := r.Total(12 * time.Second); got != 1000 {
		t.Errorf("Total = %d, want 1000", got)
	}
	// At t=20s everything has expired.
	if got := r.Rate(20 * time.Second); got != 0 {
		t.Errorf("Rate = %v, want 0", got)
	}
}

func TestRateEstimatorDefaultWindow(t *testing.T) {
	r := NewRateEstimator(0)
	r.Add(0, 20000)
	if got := r.Rate(0); got != 1000 {
		t.Errorf("Rate = %v, want 1000 (20000B / 20s default window)", got)
	}
}

func TestRateEstimatorZeroAdd(t *testing.T) {
	r := NewRateEstimator(time.Second)
	r.Add(0, 0)
	if got := r.Total(0); got != 0 {
		t.Errorf("Total = %d", got)
	}
}
