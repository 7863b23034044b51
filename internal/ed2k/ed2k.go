// Package ed2k models an eDonkey-style P2P data network — the "other
// third-generation" network the paper's §3.7 argues its findings transfer
// to. The mechanics that matter for mobile hosts differ from BitTorrent in
// instructive ways:
//
//   - Source discovery is server-based: clients announce shared files to an
//     index server and query it for sources (like a tracker, but clients
//     stay registered under a persistent client hash).
//   - Service is queue-based, not choke-based: a requester waits in each
//     source's upload queue; its position improves with waiting time scaled
//     by a credit modifier earned by past uploads to that source.
//   - Credits and queue standing are keyed by the client hash. A mobile
//     host that regenerates its hash on every task re-initiation loses both
//     its credits and its accumulated waiting time at every queue — a
//     double identity penalty, stronger than BitTorrent's (paper §3.7:
//     "a majority of the issues still hold").
//   - Chunk selection is spread randomly across the file (no rarest-first),
//     which is why §3.7 exempts eDonkey from the playability problem's
//     root cause while keeping all the identity/mobility problems.
package ed2k

import (
	"fmt"
	"time"

	"github.com/wp2p/wp2p/internal/netem"
	"github.com/wp2p/wp2p/internal/ordset"
	"github.com/wp2p/wp2p/internal/sim"
)

// ClientHash is the persistent identity credits and queue standing are
// keyed by (eDonkey's 16-byte user hash).
type ClientHash string

// NewClientHash derives a fresh hash from a random source.
func NewClientHash(r interface{ Int63() int64 }) ClientHash {
	return ClientHash(fmt.Sprintf("ed2k-%012x", uint64(r.Int63())&0xffffffffffff))
}

// FileID identifies a shared file on the index server.
type FileID string

// File describes a shared file. Chunks are the download granularity
// (eDonkey's 9.28 MB parts, scaled down with the file).
type File struct {
	ID       FileID
	Size     int64
	ChunkLen int
}

// NumChunks returns the chunk count.
func (f *File) NumChunks() int {
	return int((f.Size + int64(f.ChunkLen) - 1) / int64(f.ChunkLen))
}

// ChunkSize returns the byte length of chunk i.
func (f *File) ChunkSize(i int) int {
	if i < 0 || i >= f.NumChunks() {
		return 0
	}
	if i == f.NumChunks()-1 {
		if rem := int(f.Size % int64(f.ChunkLen)); rem != 0 {
			return rem
		}
	}
	return f.ChunkLen
}

// SourceInfo is one index-server directory entry.
type SourceInfo struct {
	Hash ClientHash
	Addr netem.Addr
}

// Server is the eDonkey index server: it tracks which clients share which
// files and answers source queries. Like the paper's tracker, its knowledge
// lags mobility: a handed-off client is listed under its stale address
// until it re-announces.
type Server struct {
	engine *sim.Engine
	files  map[FileID]*ordset.Set[ClientHash, SourceInfo]

	// Queries counts source lookups, for tests.
	Queries int
}

// serverRTT is the index server's request/response latency.
const serverRTT = 100 * time.Millisecond

// NewServer builds an empty index server.
func NewServer(engine *sim.Engine) *Server {
	return &Server{
		engine: engine,
		files:  make(map[FileID]*ordset.Set[ClientHash, SourceInfo]),
	}
}

// Announce registers (or refreshes) a client as a source for a file.
func (s *Server) Announce(id FileID, src SourceInfo) {
	s.engine.Schedule(serverRTT, func() {
		set := s.files[id]
		if set == nil {
			set = ordset.New[ClientHash, SourceInfo](8)
			s.files[id] = set
		}
		set.Put(src.Hash, src)
	})
}

// Withdraw removes a client's registration.
func (s *Server) Withdraw(id FileID, hash ClientHash) {
	s.engine.Schedule(serverRTT, func() {
		if set := s.files[id]; set != nil {
			set.Delete(hash)
		}
	})
}

// Query returns the current sources for a file after the server RTT.
// The ordered index iterates in announce-history order, which is itself
// deterministic, so no sort is needed for reproducible runs.
func (s *Server) Query(id FileID, cb func([]SourceInfo)) {
	s.engine.Schedule(serverRTT, func() {
		s.Queries++
		set := s.files[id]
		out := make([]SourceInfo, 0, set.Len())
		if set != nil {
			set.Range(func(_ ClientHash, src SourceInfo) bool {
				out = append(out, src)
				return true
			})
		}
		s.engine.Schedule(serverRTT, func() { cb(out) })
	})
}
