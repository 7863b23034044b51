package experiments

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
	if got := prefixBytes(have, tor); got != 0 {
		t.Errorf("empty: %v", got)
	}
	have.Set(0)
	have.Set(1)
	have.Set(5) // not contiguous: does not count
	if got := prefixBytes(have, tor); got != 2*256*1024 {
		t.Errorf("prefix 2/10: got %d bytes, want 2 pieces", got)
	}
	if got := fetchedBytes(have, tor); got != 3*256*1024 {
		t.Errorf("downloaded 3/10: got %d bytes, want 3 pieces", got)
	}
	if got := playableShareOfFetched(have, tor); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("share of fetched = %v, want 2/3", got)
	}
}

func TestPlayableBytesShortLastPiece(t *testing.T) {
	tor := bt.NewMetaInfo("m", 256*1024+100, 256*1024) // 2 pieces, last = 100 B
	have := bt.NewBitfield(2)
	have.SetAll()
	if got := prefixBytes(have, tor); got != 256*1024+100 {
		t.Errorf("prefixBytes = %d", got)
	}
	c := &playableCurve{tor: tor}
	c.observe(have)
	if got := c.playableAt(1); got != 1 {
		t.Errorf("complete file playable = %v", got)
	}
}

func TestCurveObserveAndInterpolate(t *testing.T) {
	tor := torrentOf(10)
	c := &playableCurve{tor: tor}
	have := bt.NewBitfield(10)
	have.Set(5)
	c.observe(have) // downloaded 0.1, playable 0
	have.Set(0)
	c.observe(have) // downloaded 0.2, playable 0.1
	have.Set(1)
	c.observe(have) // downloaded 0.3, playable 0.2
	if len(c.points) != 3 {
		t.Fatalf("points = %d", len(c.points))
	}
	if got := c.playableAt(0.25); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("playableAt(0.25) = %v, want 0.1", got)
	}
	if got := c.playableAt(0.05); got != 0 {
		t.Errorf("playableAt(0.05) = %v, want 0", got)
	}
	if got := c.playableAt(1.0); math.Abs(got-0.2) > 1e-9 {
		t.Errorf("playableAt(1.0) = %v, want 0.2", got)
	}
}

// Property: playable <= downloaded, both within the file; playable equals
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
		p := prefixBytes(have, tor)
		d := fetchedBytes(have, tor)
		if p < 0 || d > tor.Length || p > d {
			return false
		}
		if prefix && p != d {
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(31))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
