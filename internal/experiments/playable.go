package experiments

import "github.com/wp2p/wp2p/internal/bt"

// Playability of partially downloaded content. Media formats allow playback
// of an in-sequence prefix, so the playable fraction of a download is the
// byte length of the contiguous piece prefix over the file size — the metric
// behind the paper's Figures 4(b,c) and 9(a,b).

// prefixBytes returns how many bytes from the head of the file are playable
// given the piece map.
func prefixBytes(have *bt.Bitfield, tor *bt.MetaInfo) int64 {
	prefix := have.PrefixLen()
	var n int64
	for i := 0; i < prefix; i++ {
		n += int64(tor.PieceSize(i))
	}
	return n
}

// fetchedBytes returns how many bytes of the file the piece map holds.
func fetchedBytes(have *bt.Bitfield, tor *bt.MetaInfo) int64 {
	var n int64
	for i := 0; i < have.Len(); i++ {
		if have.Has(i) {
			n += int64(tor.PieceSize(i))
		}
	}
	return n
}

// playableShareOfFetched is the in-order prefix as a share of what was
// fetched (not of the whole file), isolating fetch-ordering quality from
// throughput.
func playableShareOfFetched(have *bt.Bitfield, tor *bt.MetaInfo) float64 {
	fetched := fetchedBytes(have, tor)
	if fetched == 0 {
		return 0
	}
	return float64(prefixBytes(have, tor)) / float64(fetched)
}

// playablePoint pairs a download level with the playability observed there,
// both as fractions of the whole file.
type playablePoint struct {
	downloaded, playable float64
}

// playableCurve records playability as a download progresses. Feed it from
// the client's OnPieceComplete hook.
type playableCurve struct {
	tor    *bt.MetaInfo
	points []playablePoint
}

// observe appends a point from the current piece map.
func (c *playableCurve) observe(have *bt.Bitfield) {
	length := float64(c.tor.Length)
	c.points = append(c.points, playablePoint{
		downloaded: float64(fetchedBytes(have, c.tor)) / length,
		playable:   float64(prefixBytes(have, c.tor)) / length,
	})
}

// playableAt interpolates the playable fraction at a downloaded fraction d,
// using the last observation at or below d (step interpolation). It returns
// 0 before the first observation.
func (c *playableCurve) playableAt(d float64) float64 {
	v := 0.0
	for _, p := range c.points {
		if p.downloaded > d {
			break
		}
		v = p.playable
	}
	return v
}
