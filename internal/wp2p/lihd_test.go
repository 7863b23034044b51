package wp2p

import (
	"testing"
	"time"

	"github.com/wp2p/wp2p/internal/bt"
	"github.com/wp2p/wp2p/internal/netem"
	"github.com/wp2p/wp2p/internal/sim"
)

// scriptedRate replays a download-rate sequence, one value per update.
type scriptedRate struct {
	rates []float64
	i     int
}

func (s *scriptedRate) DownloadRate() float64 {
	if s.i >= len(s.rates) {
		return s.rates[len(s.rates)-1]
	}
	v := s.rates[s.i]
	s.i++
	return v
}

func lihdFixture(rates []float64, cfg LIHDConfig) (*sim.Engine, *bt.Limiter, *LIHD) {
	e := sim.NewEngine(sim.WithSeed(1))
	lim := bt.NewLimiter(e, 0)
	if cfg.Umax == 0 {
		cfg.Umax = 100 * netem.KBps
	}
	l := NewLIHD(e, lim, &scriptedRate{rates: rates}, cfg)
	return e, lim, l
}

func TestLIHDInitialCapIsHalfUmax(t *testing.T) {
	_, lim, l := lihdFixture(nil, LIHDConfig{Umax: 100 * netem.KBps})
	if got := netem.Rate(l.ucur); got != 50*netem.KBps {
		t.Errorf("initial cap = %v, want 50 KBps", got)
	}
	if lim.Rate() != 50*netem.KBps {
		t.Errorf("limiter not initialized: %v", lim.Rate())
	}
}

func TestLIHDIncreasesWhileDownloadsImprove(t *testing.T) {
	e, _, l := lihdFixture([]float64{1000, 2000, 3000, 4000, 5000}, LIHDConfig{})
	l.Start()
	e.RunUntil(50 * time.Second) // 5 updates at 10s
	// First update only records Dprev; the next four see improvement:
	// but the very first comparison happens at update 2. Increases: 3×α
	// (updates 3,4,5 see strictly increasing rates; update 2 compares with
	// 1000 < 2000 → also +α) ⇒ 4 increases.
	want := 50*netem.KBps + 4*10*netem.KBps
	if got := netem.Rate(l.ucur); got != want {
		t.Errorf("cap = %v, want %v", got, want)
	}
}

func TestLIHDDecreaseAccelerates(t *testing.T) {
	// Clearly worsening downloads: decrements are β, 2β, 3β…
	e, _, l := lihdFixture([]float64{5000, 4000, 3000, 2000}, LIHDConfig{})
	l.Start()
	e.RunUntil(40 * time.Second)
	// Updates: #1 records only. #2: worse → −β. #3: −2β. #4: −3β. Total −6β
	// ⇒ 50 − 60 → clamped at the 1 KB/s default Umin.
	if got, want := netem.Rate(l.ucur), 1*netem.KBps; got != want {
		t.Errorf("cap = %v, want %v", got, want)
	}
	if l.regUpdates.Value() != 4 {
		t.Errorf("updates = %d", l.regUpdates.Value())
	}
}

func TestLIHDHoldsInsideNoiseBand(t *testing.T) {
	// Fluctuations within ±ε neither increase nor decrease the cap.
	e, _, l := lihdFixture([]float64{1000, 1010, 995, 1005, 1000}, LIHDConfig{})
	l.Start()
	e.RunUntil(50 * time.Second)
	if got, want := netem.Rate(l.ucur), 50*netem.KBps; got != want {
		t.Errorf("cap = %v, want unchanged %v", got, want)
	}
}

func TestLIHDClampsAtUmaxAndUmin(t *testing.T) {
	// Ever-improving: must stop at Umax.
	up := make([]float64, 30)
	for i := range up {
		up[i] = float64(1000 * (i + 1))
	}
	e, _, l := lihdFixture(up, LIHDConfig{Umax: 60 * netem.KBps})
	l.Start()
	e.RunUntil(300 * time.Second)
	if got := netem.Rate(l.ucur); got != 60*netem.KBps {
		t.Errorf("cap = %v, want clamp at 60 KBps", got)
	}

	// Ever-worsening: must stop at Umin, never zero (tit-for-tat).
	down := make([]float64, 30)
	for i := range down {
		down[i] = float64(100000 - 3000*i)
	}
	e2, _, l2 := lihdFixture(down, LIHDConfig{Umin: 2 * netem.KBps})
	l2.Start()
	e2.RunUntil(300 * time.Second)
	if got := netem.Rate(l2.ucur); got != 2*netem.KBps {
		t.Errorf("cap = %v, want clamp at Umin 2 KBps", got)
	}
}

func TestLIHDRecoveryResetsDecreaseHistory(t *testing.T) {
	// Decrease twice, then improve: the next decrease should restart at β.
	rates := []float64{5000, 4500, 4000, 8000, 7000, 6300}
	e, _, l := lihdFixture(rates, LIHDConfig{})
	l.Start()
	// #1 record. #2 worse −β (40). #3 worse −2β (20). #4 improve +α (30),
	// reset. #5 worse −β (20) — NOT −3β: the improvement reset the history.
	e.RunUntil(50 * time.Second)
	if got, want := netem.Rate(l.ucur), 20*netem.KBps; got != want {
		t.Errorf("cap after update 5 = %v, want %v (decrease history not reset)", got, want)
	}
	// #6 worse −2β → 0, clamped at the default Umin of 1 KB/s.
	e.RunUntil(60 * time.Second)
	if got, want := netem.Rate(l.ucur), 1*netem.KBps; got != want {
		t.Errorf("cap after update 6 = %v, want %v", got, want)
	}
}

func TestLIHDStopFreezesCap(t *testing.T) {
	e, _, l := lihdFixture([]float64{1000, 2000, 3000}, LIHDConfig{})
	l.Start()
	e.RunUntil(20 * time.Second)
	l.Stop()
	capBefore := netem.Rate(l.ucur)
	e.RunUntil(2 * time.Minute)
	if netem.Rate(l.ucur) != capBefore {
		t.Errorf("cap moved after Stop: %v → %v", capBefore, netem.Rate(l.ucur))
	}
}

func TestLIHDPanicsWithoutUmax(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("missing Umax did not panic")
		}
	}()
	e := sim.NewEngine()
	NewLIHD(e, bt.NewLimiter(e, 0), &scriptedRate{}, LIHDConfig{})
}
