// Package media evaluates the playability of partially downloaded content.
// Media formats allow playback of an in-sequence prefix, so the playable
// fraction of a download is the byte length of the contiguous piece prefix
// over the file size — the metric behind the paper's Figures 4(b,c) and
// 9(a,b).
package media

import (
	"github.com/wp2p/wp2p/internal/bt"
)

// PlayableBytes returns how many bytes from the head of the file are
// playable given the piece map.
func PlayableBytes(have *bt.Bitfield, torrent *bt.MetaInfo) int64 {
	prefix := have.PrefixLen()
	var n int64
	for i := 0; i < prefix; i++ {
		n += int64(torrent.PieceSize(i))
	}
	return n
}

// PlayableFraction returns the playable share of the whole file in [0, 1].
func PlayableFraction(have *bt.Bitfield, torrent *bt.MetaInfo) float64 {
	return float64(PlayableBytes(have, torrent)) / float64(torrent.Length)
}

// DownloadedFraction returns the downloaded share of the whole file.
func DownloadedFraction(have *bt.Bitfield, torrent *bt.MetaInfo) float64 {
	var n int64
	for i := 0; i < have.Len(); i++ {
		if have.Has(i) {
			n += int64(torrent.PieceSize(i))
		}
	}
	return float64(n) / float64(torrent.Length)
}

// CurvePoint pairs a download level with the playability observed there.
type CurvePoint struct {
	Downloaded float64 // fraction of file downloaded
	Playable   float64 // fraction of file playable
}

// Curve records playability as a download progresses. Feed it from the
// client's OnPieceComplete hook.
type Curve struct {
	torrent *bt.MetaInfo
	points  []CurvePoint
}

// NewCurve builds an empty curve for the torrent.
func NewCurve(torrent *bt.MetaInfo) *Curve {
	return &Curve{torrent: torrent}
}

// Observe appends a point from the current piece map.
func (c *Curve) Observe(have *bt.Bitfield) {
	c.points = append(c.points, CurvePoint{
		Downloaded: DownloadedFraction(have, c.torrent),
		Playable:   PlayableFraction(have, c.torrent),
	})
}

// PlayableAt interpolates the playable fraction at a downloaded fraction d,
// using the last observation at or below d (step interpolation). Returns 0
// before the first observation.
func (c *Curve) PlayableAt(d float64) float64 {
	v := 0.0
	for _, p := range c.points {
		if p.Downloaded > d {
			break
		}
		v = p.Playable
	}
	return v
}
