package experiments

import (
	"strings"
	"testing"
	"time"

	"github.com/wp2p/wp2p/internal/netem"
)

func TestRegistryCoversAllIDs(t *testing.T) {
	reg := Registry(0.05, RegistryOptions{})
	for _, id := range IDs() {
		if _, ok := reg[id]; !ok {
			t.Errorf("registry missing %s", id)
		}
	}
	if len(reg) != len(IDs()) {
		t.Errorf("registry has %d entries, IDs() lists %d", len(reg), len(IDs()))
	}
}

func TestResultTableFormatting(t *testing.T) {
	r := &Result{ID: "x", Title: "T", XLabel: "x", YLabel: "y"}
	r.AddSeries("a", []float64{1, 2}, []float64{10, 0.5})
	r.AddSeries("b", []float64{1, 2}, []float64{3.25e-5, 100})
	r.Note("hello %d", 7)
	tbl := r.Table()
	for _, want := range []string{"== x: T ==", "a", "b", "hello 7", "3.2e-05", "0.500"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table missing %q:\n%s", want, tbl)
		}
	}
	empty := (&Result{ID: "e", Title: "E"}).Table()
	if !strings.Contains(empty, "no data") {
		t.Errorf("empty table: %s", empty)
	}
}

func TestFig2aShape(t *testing.T) {
	res := Fig2aBiVsUniTCP(Fig2aConfig{
		BERs:     []float64{0, 2e-5},
		Duration: 30 * time.Second,
		Runs:     2,
	})
	bi, uni := res.Series[0].Y, res.Series[1].Y
	// Self-contention: uni beats bi on a clean half-duplex channel.
	if uni[0] <= bi[0] {
		t.Errorf("at BER 0: uni %.1f should exceed bi %.1f (half-duplex self-contention)", uni[0], bi[0])
	}
	// Loss hurts both.
	if bi[1] >= bi[0] || uni[1] >= uni[0] {
		t.Errorf("throughput should fall with BER: bi %v uni %v", bi, uni)
	}
}

func TestFig2bcShape(t *testing.T) {
	res := Fig2bcPacketsAfterDrop(Fig2bcConfig{})
	if len(res.Series) != 4 {
		t.Fatalf("series = %d, want 4", len(res.Series))
	}
	// The note records post-drop means; bi must stay at least as loaded as
	// uni (the DUPACK-offset misbehaviour).
	uniMean := 0.0
	biMean := 0.0
	for _, v := range res.Series[0].Y {
		uniMean += v
	}
	for _, v := range res.Series[2].Y {
		biMean += v
	}
	if biMean < uniMean {
		t.Errorf("bi leg load %.1f should be >= uni %.1f", biMean, uniMean)
	}
	// Congestion must actually have occurred in both traces.
	drops := func(y []float64) float64 {
		s := 0.0
		for _, v := range y {
			s += v
		}
		return s
	}
	if drops(res.Series[1].Y) == 0 || drops(res.Series[3].Y) == 0 {
		t.Error("no buffer drops observed; the scenario must force congestion")
	}
}

// TestFig3aShape: on wired access, uploading more buys more download
// (paper Fig. 3a, ≈1.9× from no upload to a 90% cap). The tit-for-tat
// credit that produces the slope needs the full-scale horizon to build —
// at -scale 0.1 the curve is flat — so the test keeps Scale 1 and thins
// the cap axis instead.
func TestFig3aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("twelve full-horizon swarms")
	}
	res := Fig3aUploadCapWired(Fig3Config{CapFractions: []float64{0, 0.3, 0.6, 0.9}})
	y := res.Series[0].Y
	for i := 1; i < len(y); i++ {
		if y[i] < 0.95*y[i-1] { // monotone within seed noise
			t.Errorf("download rate fell from %.1f to %.1f KB/s as the cap rose to %.0f%%: %v", y[i-1], y[i], res.Series[0].X[i], y)
		}
	}
	if ratio := y[len(y)-1] / y[0]; ratio < 1.5 {
		t.Errorf("90%% cap downloads %.2fx the no-upload rate, want ≥ 1.5x (paper ≈ 1.9x): %v", ratio, y)
	}
}

func TestFig3cOrdering(t *testing.T) {
	res := Fig3cIncentiveMobility(Fig3cConfig{Scale: 0.04})
	noMobUp := res.Series[0].Y
	mobUp := res.Series[2].Y
	lastIdx := len(noMobUp) - 1
	// Mobility must cost the uploading client progress.
	if mobUp[lastIdx] >= noMobUp[lastIdx] {
		t.Errorf("mobility should reduce download: noMob/up=%.1f mob/up=%.1f",
			noMobUp[lastIdx], mobUp[lastIdx])
	}
	// Curves are cumulative: monotone nondecreasing.
	for i := 1; i < len(noMobUp); i++ {
		if noMobUp[i] < noMobUp[i-1] {
			t.Fatalf("cumulative download decreased at %d: %v", i, noMobUp)
		}
	}
}

func TestFig4aShape(t *testing.T) {
	res := Fig4aServerMobility(Fig4aConfig{
		Scale:   0.05,
		Periods: []time.Duration{0, 30 * time.Second},
	})
	one, all := res.Series[0].Y, res.Series[1].Y
	if all[1] >= all[0] {
		t.Errorf("all-mobile fast handoffs should hurt: static %.0f vs mobile %.0f", all[0], all[1])
	}
	// All-mobile must be at least as bad as one-mobile under churn.
	if all[1] > one[1]*1.1 {
		t.Errorf("all-mobile (%.0f) should not beat one-mobile (%.0f)", all[1], one[1])
	}
}

func TestFig4bcPlayabilityShape(t *testing.T) {
	res := Fig4bcRarestPlayability(FigPlayConfig{
		Scale: 0.05, Runs: 2, FileSizes: []int64{5 * 1024 * 1024},
	})
	y := res.Series[0].Y
	// Rarest-first leaves almost nothing playable before 90% downloaded.
	if y[5] > 20 {
		t.Errorf("playable at 60%% downloaded = %.1f%%, want near zero under rarest-first", y[5])
	}
	// Complete file fully playable.
	if y[9] != 100 {
		t.Errorf("playable at 100%% = %.1f%%, want 100", y[9])
	}
	// Playability never exceeds the downloaded share.
	for i, v := range y {
		if v > float64((i+1)*10)+1e-9 {
			t.Errorf("playable %.1f%% exceeds downloaded %d%%", v, (i+1)*10)
		}
	}
}

func TestFig9abMFBeatsRarest(t *testing.T) {
	res := Fig9abMobilityAwareFetch(FigPlayConfig{
		Scale: 0.05, Runs: 2, FileSizes: []int64{5 * 1024 * 1024},
	})
	def, mf := res.Series[0].Y, res.Series[1].Y
	if mf[4] <= def[4] {
		t.Errorf("MF playable@50%% (%.1f) must beat rarest-first (%.1f)", mf[4], def[4])
	}
	if mf[4] < 20 {
		t.Errorf("MF playable@50%% = %.1f, expected a substantial in-order prefix", mf[4])
	}
}

func TestFig9cRRHelpsUnderChurn(t *testing.T) {
	res := Fig9cRoleReversal(Fig9cConfig{
		Scale: 0.05, Periods: []time.Duration{2 * time.Minute},
	})
	def, wp := res.Series[0].Y[0], res.Series[1].Y[0]
	if wp < def {
		t.Errorf("role reversal should not reduce serving: default %.0f wp2p %.0f", def, wp)
	}
}

func TestFig8aRuns(t *testing.T) {
	res := Fig8aAgeBasedManipulation(Fig8aConfig{
		Scale: 0.04, Runs: 1, BERs: []float64{1e-5},
	})
	if len(res.Series) != 2 || len(res.Series[0].Y) != 1 {
		t.Fatalf("unexpected result shape: %+v", res.Series)
	}
	if res.Series[0].Y[0] <= 0 || res.Series[1].Y[0] <= 0 {
		t.Errorf("degenerate throughputs: %v", res.Series)
	}
}

func TestFig8bWP2PNotWorse(t *testing.T) {
	res := Fig8bIdentityRetention(Fig8bConfig{Scale: 0.06})
	def := res.Series[0].Y
	wp := res.Series[1].Y
	lastIdx := len(def) - 1
	// Identity retention must not hurt; at small scales the gap is modest,
	// so allow slack but catch regressions where wP2P falls clearly behind.
	if wp[lastIdx] < def[lastIdx]*0.85 {
		t.Errorf("wP2P fell behind: %.1f vs default %.1f MB", wp[lastIdx], def[lastIdx])
	}
}

func TestFig8cRunsAllBandwidths(t *testing.T) {
	res := Fig8cLIHD(Fig8cConfig{
		Scale: 0.04, Runs: 1,
		Bandwidths: []netem.Rate{50 * netem.KBps},
	})
	if res.Series[0].Y[0] <= 0 || res.Series[1].Y[0] <= 0 {
		t.Errorf("degenerate throughputs: %v", res.Series)
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	run := func() []float64 {
		return Fig2aBiVsUniTCP(Fig2aConfig{
			BERs: []float64{1e-5}, Duration: 20 * time.Second, Runs: 1,
		}).Series[0].Y
	}
	a, b := run(), run()
	if a[0] != b[0] {
		t.Errorf("identical configs diverged: %v vs %v", a, b)
	}
}

func TestWorldHelpers(t *testing.T) {
	w := NewWorld(1, 0)
	if w.Tracker.Interval() <= 0 {
		t.Error("tracker interval unset")
	}
	h1 := w.WiredHost(0, 0)
	h2 := w.WirelessHost(netem.WirelessConfig{})
	if h1.Iface.IP() == h2.Iface.IP() {
		t.Error("hosts share an address")
	}
	if h1.Link == nil || h2.WLAN == nil {
		t.Error("medium references not populated")
	}
	if Scaled(100, 0.5, 1) != 50 || Scaled(100, 0.001, 10) != 10 {
		t.Error("Scaled() wrong")
	}
	if ScaledDur(time.Minute, 0.5, time.Second) != 30*time.Second {
		t.Error("ScaledDur() wrong")
	}
	if ScaledDur(time.Minute, 0.001, time.Second) != time.Second {
		t.Error("scaledDur floor wrong")
	}
}
