package bt

import "time"

// RateEstimator measures a byte rate over a sliding time window, the way
// BitTorrent clients estimate per-peer transfer rates for choking decisions.
// The zero value is not usable; create estimators with NewRateEstimator.
type RateEstimator struct {
	window  time.Duration
	samples []sample
	total   int64
}

type sample struct {
	at time.Duration
	n  int64
}

// DefaultRateWindow matches the ~20s averaging BitTorrent clients use.
const DefaultRateWindow = 20 * time.Second

// NewRateEstimator creates an estimator with the given sliding window; if
// window is zero, DefaultRateWindow is used.
func NewRateEstimator(window time.Duration) *RateEstimator {
	if window <= 0 {
		window = DefaultRateWindow
	}
	return &RateEstimator{window: window}
}

// Add records n bytes transferred at virtual time now.
func (r *RateEstimator) Add(now time.Duration, n int64) {
	r.prune(now)
	if n == 0 {
		return
	}
	r.samples = append(r.samples, sample{at: now, n: n})
	r.total += n
}

// Rate returns the average rate in bytes/second over the window ending at
// now.
func (r *RateEstimator) Rate(now time.Duration) float64 {
	r.prune(now)
	if r.window == 0 {
		return 0
	}
	return float64(r.total) / r.window.Seconds()
}

// Total returns the bytes currently inside the window at time now.
func (r *RateEstimator) Total(now time.Duration) int64 {
	r.prune(now)
	return r.total
}

func (r *RateEstimator) prune(now time.Duration) {
	cutoff := now - r.window
	i := 0
	for i < len(r.samples) && r.samples[i].at <= cutoff {
		r.total -= r.samples[i].n
		i++
	}
	if i > 0 {
		r.samples = append(r.samples[:0], r.samples[i:]...)
	}
}
