package bt

import (
	"crypto/sha1"
	"testing"
)

func TestMetaInfoGeometry(t *testing.T) {
	tests := []struct {
		name       string
		length     int64
		pieceLen   int
		wantPieces int
		lastPiece  int // size of final piece
	}{
		{"exact", 1024 * 1024, 256 * 1024, 4, 256 * 1024},
		{"remainder", 1024*1024 + 1, 256 * 1024, 5, 1},
		{"single", 1000, 256 * 1024, 1, 1000},
		{"paper-5MB", 5 * 1024 * 1024, 256 * 1024, 20, 256 * 1024},
		{"paper-100MB", 100 * 1024 * 1024, 256 * 1024, 400, 256 * 1024},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := NewMetaInfo(tt.name, tt.length, tt.pieceLen)
			if got := m.NumPieces(); got != tt.wantPieces {
				t.Errorf("NumPieces = %d, want %d", got, tt.wantPieces)
			}
			if got := m.PieceSize(m.NumPieces() - 1); got != tt.lastPiece {
				t.Errorf("last PieceSize = %d, want %d", got, tt.lastPiece)
			}
			// Sizes must sum to the file length.
			var sum int64
			for i := 0; i < m.NumPieces(); i++ {
				sum += int64(m.PieceSize(i))
			}
			if sum != tt.length {
				t.Errorf("piece sizes sum to %d, want %d", sum, tt.length)
			}
		})
	}
}

func TestMetaInfoBlocks(t *testing.T) {
	m := NewMetaInfo("f", 256*1024+100, 256*1024)
	if got := m.NumBlocks(0); got != 16 {
		t.Errorf("NumBlocks(0) = %d, want 16", got)
	}
	if got := m.NumBlocks(1); got != 1 {
		t.Errorf("NumBlocks(1) = %d, want 1", got)
	}
	if got := m.BlockLen(0, 0); got != BlockSize {
		t.Errorf("BlockLen(0,0) = %d", got)
	}
	if got := m.BlockLen(1, 0); got != 100 {
		t.Errorf("BlockLen(1,0) = %d, want 100", got)
	}
	// Block lengths must sum to piece size.
	for p := 0; p < m.NumPieces(); p++ {
		sum := 0
		for b := 0; b < m.NumBlocks(p); b++ {
			sum += m.BlockLen(p, b)
		}
		if sum != m.PieceSize(p) {
			t.Errorf("piece %d blocks sum to %d, want %d", p, sum, m.PieceSize(p))
		}
	}
}

func TestInfoHashIdentity(t *testing.T) {
	a := NewMetaInfo("fedora.iso", 688*1024*1024, 0)
	b := NewMetaInfo("fedora.iso", 688*1024*1024, 0)
	if a.InfoHash() != b.InfoHash() {
		t.Error("identical torrents must share an infohash")
	}
	c := NewMetaInfo("fedora.iso", 688*1024*1024+1, 0)
	if a.InfoHash() == c.InfoHash() {
		t.Error("different torrents must not collide")
	}
	if len(a.InfoHash().String()) != 40 {
		t.Errorf("hex infohash length = %d", len(a.InfoHash().String()))
	}
	// The stored value is the hash of name/length/pieceLen with the default
	// piece length already applied: digests carry it, so it must not move.
	if want := InfoHash(sha1.Sum([]byte("fedora.iso/721420288/262144"))); a.InfoHash() != want {
		t.Errorf("infohash = %s, want %s", a.InfoHash(), want)
	}
}

func TestMetaInfoDefaults(t *testing.T) {
	m := NewMetaInfo("x", 1000, 0)
	if m.PieceLen != DefaultPieceLen {
		t.Errorf("PieceLen = %d, want default %d", m.PieceLen, DefaultPieceLen)
	}
	if m.PieceSize(-1) != 0 || m.PieceSize(99) != 0 {
		t.Error("out-of-range PieceSize should be 0")
	}
	if m.String() == "" {
		t.Error("empty String()")
	}
}

func TestNewMetaInfoPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero length did not panic")
		}
	}()
	NewMetaInfo("x", 0, 0)
}
