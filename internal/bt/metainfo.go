// Package bt implements a message-level BitTorrent data network inside the
// simulator: torrents, a tracker, the peer wire protocol, rarest-first and
// other piece pickers, the tit-for-tat choker with optimistic unchoking, a
// per-peer-id credit ledger, and a full client that downloads, verifies,
// serves, and seeds.
//
// Payload bytes are counted rather than stored: a "piece" is complete when
// all of its blocks have been delivered by the TCP model. All protocol
// mechanics the paper's analysis relies on — incentives keyed by peer-id,
// 50-peer tracker replies, rarest-first fetch order, seeds and leeches —
// are implemented, not mocked.
package bt

import (
	"crypto/sha1"
	"encoding/hex"
	"fmt"
	"strconv"
)

// Block and piece geometry.
const (
	// BlockSize is the request granularity (16 KiB, the de-facto standard).
	BlockSize = 16 * 1024
	// DefaultPieceLen matches the paper's default piece length of 256 KB.
	DefaultPieceLen = 256 * 1024
)

// InfoHash identifies a torrent.
type InfoHash [20]byte

// String returns the hex form of the hash.
func (h InfoHash) String() string { return hex.EncodeToString(h[:]) }

// MetaInfo describes a shared file — the contents of a ".torrent" file.
type MetaInfo struct {
	Name     string
	Length   int64 // file size in bytes
	PieceLen int   // bytes per piece

	infoHash InfoHash // derived once by NewMetaInfo
}

// NewMetaInfo builds a torrent descriptor with the given name and length,
// using DefaultPieceLen if pieceLen is zero.
func NewMetaInfo(name string, length int64, pieceLen int) *MetaInfo {
	if pieceLen <= 0 {
		pieceLen = DefaultPieceLen
	}
	if length <= 0 {
		panic("bt: torrent length must be positive")
	}
	return &MetaInfo{
		Name: name, Length: length, PieceLen: pieceLen,
		infoHash: sha1.Sum([]byte(name + "/" + strconv.FormatInt(length, 10) + "/" + strconv.Itoa(pieceLen))),
	}
}

// InfoHash returns the torrent's identity, derived from its metadata when
// the descriptor was built: every handshake sent and checked reads it.
func (m *MetaInfo) InfoHash() InfoHash { return m.infoHash }

// NumPieces returns the number of pieces in the torrent.
func (m *MetaInfo) NumPieces() int {
	return int((m.Length + int64(m.PieceLen) - 1) / int64(m.PieceLen))
}

// PieceSize returns the byte length of piece i (the final piece may be
// short).
func (m *MetaInfo) PieceSize(i int) int {
	if i < 0 || i >= m.NumPieces() {
		return 0
	}
	if i == m.NumPieces()-1 {
		if rem := int(m.Length % int64(m.PieceLen)); rem != 0 {
			return rem
		}
	}
	return m.PieceLen
}

// NumBlocks returns the number of blocks in piece i.
func (m *MetaInfo) NumBlocks(i int) int {
	return (m.PieceSize(i) + BlockSize - 1) / BlockSize
}

// BlockLen returns the byte length of block b of piece i.
func (m *MetaInfo) BlockLen(i, b int) int {
	ps := m.PieceSize(i)
	off := b * BlockSize
	if off >= ps {
		return 0
	}
	if off+BlockSize > ps {
		return ps - off
	}
	return BlockSize
}

// String describes the torrent.
func (m *MetaInfo) String() string {
	return fmt.Sprintf("%s (%d bytes, %d pieces of %d)", m.Name, m.Length, m.NumPieces(), m.PieceLen)
}
