package media

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/wp2p/wp2p/internal/bt"
)

func torrentOf(nPieces int) *bt.MetaInfo {
	return bt.NewMetaInfo("m", int64(nPieces)*256*1024, 256*1024)
}

func TestPlayableFractionPrefix(t *testing.T) {
	tor := torrentOf(10)
	have := bt.NewBitfield(10)
	if got := PlayableFraction(have, tor); got != 0 {
		t.Errorf("empty: %v", got)
	}
	have.Set(0)
	have.Set(1)
	have.Set(5) // not contiguous: does not count
	if got := PlayableFraction(have, tor); math.Abs(got-0.2) > 1e-9 {
		t.Errorf("prefix 2/10: got %v, want 0.2", got)
	}
	if got := DownloadedFraction(have, tor); math.Abs(got-0.3) > 1e-9 {
		t.Errorf("downloaded 3/10: got %v, want 0.3", got)
	}
}

func TestPlayableBytesShortLastPiece(t *testing.T) {
	tor := bt.NewMetaInfo("m", 256*1024+100, 256*1024) // 2 pieces, last = 100 B
	have := bt.NewBitfield(2)
	have.SetAll()
	if got := PlayableBytes(have, tor); got != 256*1024+100 {
		t.Errorf("PlayableBytes = %d", got)
	}
	if got := PlayableFraction(have, tor); got != 1 {
		t.Errorf("complete file playable = %v", got)
	}
}

func TestCurveObserveAndInterpolate(t *testing.T) {
	tor := torrentOf(10)
	c := NewCurve(tor)
	have := bt.NewBitfield(10)
	have.Set(5)
	c.Observe(have) // downloaded 0.1, playable 0
	have.Set(0)
	c.Observe(have) // downloaded 0.2, playable 0.1
	have.Set(1)
	c.Observe(have) // downloaded 0.3, playable 0.2
	pts := c.points
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	if got := c.PlayableAt(0.25); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("PlayableAt(0.25) = %v, want 0.1", got)
	}
	if got := c.PlayableAt(0.05); got != 0 {
		t.Errorf("PlayableAt(0.05) = %v, want 0", got)
	}
	if got := c.PlayableAt(1.0); math.Abs(got-0.2) > 1e-9 {
		t.Errorf("PlayableAt(1.0) = %v, want 0.2", got)
	}
}

// Property: playable <= downloaded, both within [0,1]; playable equals
// downloaded exactly when the have-set is a pure prefix.
func TestPropertyPlayableNeverExceedsDownloaded(t *testing.T) {
	prop := func(bits []bool) bool {
		n := len(bits)
		if n == 0 {
			return true
		}
		if n > 64 {
			bits = bits[:64]
			n = 64
		}
		tor := torrentOf(n)
		have := bt.NewBitfield(n)
		prefix := true
		sawGap := false
		for i, b := range bits {
			if b {
				have.Set(i)
				if sawGap {
					prefix = false
				}
			} else {
				sawGap = true
			}
		}
		p := PlayableFraction(have, tor)
		d := DownloadedFraction(have, tor)
		if p < 0 || p > 1 || d < 0 || d > 1 || p > d+1e-12 {
			return false
		}
		if prefix && math.Abs(p-d) > 1e-12 {
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(31))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
