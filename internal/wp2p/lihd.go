package wp2p

import (
	"time"

	"github.com/wp2p/wp2p/internal/bt"
	"github.com/wp2p/wp2p/internal/netem"
	"github.com/wp2p/wp2p/internal/sim"
	"github.com/wp2p/wp2p/internal/stats"
)

// LIHDConfig tunes the Linear Increase History-based Decrease controller.
type LIHDConfig struct {
	// Umax is the maximum upload limit. Required.
	Umax netem.Rate
	// Umin floors the upload limit: shutting uploads to zero invites
	// tit-for-tat punishment (paper §3.3), so the controller never goes
	// fully dark. Defaults to 1 KB/s.
	Umin netem.Rate
	// Alpha is the linear increase step (paper evaluation: 10 KBps).
	Alpha netem.Rate
	// Beta is the base decrease step, scaled by the consecutive-decrease
	// count (paper evaluation: 10 KBps).
	Beta netem.Rate
	// Period is the window between control updates (default 10 s).
	Period time.Duration
}

// lihdEpsilon is the relative dead band around the previous download rate:
// changes within ±ε are treated as noise and hold the cap steady. Swarm
// rates fluctuate at every choke round, and the paper's strict two-branch
// rule would ratchet the cap down on every wiggle; a small hysteresis keeps
// the controller at the peak it found.
const lihdEpsilon = 0.05

func (c LIHDConfig) withDefaults() LIHDConfig {
	if c.Umin == 0 {
		c.Umin = 1 * netem.KBps
	}
	if c.Alpha == 0 {
		c.Alpha = 10 * netem.KBps
	}
	if c.Beta == 0 {
		c.Beta = 10 * netem.KBps
	}
	if c.Period == 0 {
		c.Period = 10 * time.Second
	}
	return c
}

// RateSource reports a windowed download rate in bytes/second; *bt.Client
// satisfies it via DownloadRate.
type RateSource interface {
	DownloadRate() float64
}

// RateSourceFunc adapts a function to the RateSource interface. It lets
// LIHD optimize something other than the P2P download — e.g. a foreground
// application's throughput while the client seeds, the extension §4.2
// sketches ("controlling the rate of uploads when the mobile peer becomes
// a seed, such that the uploads do not impact ... other non-P2P
// applications").
type RateSourceFunc func() float64

// DownloadRate calls f.
func (f RateSourceFunc) DownloadRate() float64 { return f() }

// LIHD adapts the upload-rate cap to sit at the peak of the wireless
// download-vs-upload curve (paper Figure 3(b)): on a shared half-duplex
// channel uploads contend with downloads, so the optimum upload rate is the
// smallest one that still buys full tit-for-tat reciprocation. The
// controller increases the cap linearly while downloads keep improving and
// decreases it with growing aggressiveness while they do not — the
// pseudo-code of the paper's Figure 6.
type LIHD struct {
	cfg     LIHDConfig
	limiter *bt.Limiter
	source  RateSource
	ticker  *sim.Ticker
	engine  *sim.Engine

	ucur   float64
	dprev  float64
	decCnt int

	regUpdates   *stats.Counter
	regIncreases *stats.Counter
	regDecreases *stats.Counter
}

// NewLIHD builds a controller driving limiter from the download rate of
// source. Call Start to begin. It panics if Umax is unset — the controller
// is meaningless without a ceiling.
func NewLIHD(engine *sim.Engine, limiter *bt.Limiter, source RateSource, cfg LIHDConfig) *LIHD {
	if cfg.Umax <= 0 {
		panic("wp2p: LIHDConfig.Umax is required")
	}
	if limiter == nil {
		panic("wp2p: LIHD requires a limiter")
	}
	c := cfg.withDefaults()
	l := &LIHD{
		cfg:          c,
		limiter:      limiter,
		source:       source,
		engine:       engine,
		ucur:         0.5 * float64(c.Umax), // Ucur = 0.5·Umax (Figure 6, line 1)
		regUpdates:   engine.Stats().Counter("wp2p.lihd.updates"),
		regIncreases: engine.Stats().Counter("wp2p.lihd.increases"),
		regDecreases: engine.Stats().Counter("wp2p.lihd.decreases"),
	}
	limiter.SetRate(netem.Rate(l.ucur))
	return l
}

// Start begins periodic control updates.
func (l *LIHD) Start() {
	if l.ticker == nil {
		l.ticker = sim.NewTicker(l.engine, l.cfg.Period, l.update)
	}
}

// Stop halts the controller, leaving the limiter at its current rate.
func (l *LIHD) Stop() {
	if l.ticker != nil {
		l.ticker.Stop()
		l.ticker = nil
	}
}

// update is one controller iteration (Figure 6, Update block).
func (l *LIHD) update() {
	l.regUpdates.Inc()
	dcur := l.source.DownloadRate()
	if l.dprev != 0 {
		switch {
		case dcur > l.dprev*(1+lihdEpsilon):
			// Downloads improving: be conservative going up.
			l.ucur += float64(l.cfg.Alpha)
			l.decCnt = 0
			l.regIncreases.Inc()
		case dcur < l.dprev*(1-lihdEpsilon):
			// Downloads worse: back off with growing aggression.
			l.decCnt++
			l.ucur -= float64(l.cfg.Beta) * float64(l.decCnt)
			l.regDecreases.Inc()
		default:
			// Within the noise band: hold at the peak we found.
		}
	}
	if l.ucur > float64(l.cfg.Umax) {
		l.ucur = float64(l.cfg.Umax)
	}
	if l.ucur < float64(l.cfg.Umin) {
		l.ucur = float64(l.cfg.Umin)
	}
	l.limiter.SetRate(netem.Rate(l.ucur))
	l.dprev = dcur
}
