package bt

import (
	"math"
	"time"
)

// CreditLedger records how much each remote peer-id has contributed to this
// client, as an exponentially decayed byte total. It persists across
// connections: when a known peer-id reconnects, its decayed history still
// ranks it in the choker, so peers that "track the goodness of
// corresponding peers based on the peer-id" (paper §3.4) re-admit it
// quickly.
//
// This is precisely the standing a mobile host forfeits when the default
// client regenerates its peer-id after a handoff — and the standing wP2P's
// identity retention preserves.
type CreditLedger struct {
	halfLife time.Duration
	entries  map[PeerID]*creditEntry
}

type creditEntry struct {
	value float64 // decayed bytes as of `at`
	at    time.Duration
}

// DefaultCreditHalfLife balances memory and responsiveness: minutes-scale,
// so standing survives a handoff gap but a peer that stops contributing
// fades within a session.
const DefaultCreditHalfLife = 10 * time.Minute

// NewCreditLedger returns an empty ledger with the default half-life.
func NewCreditLedger() *CreditLedger {
	return NewCreditLedgerWithHalfLife(DefaultCreditHalfLife)
}

// NewCreditLedgerWithHalfLife returns an empty ledger decaying contributions
// with the given half-life.
func NewCreditLedgerWithHalfLife(halfLife time.Duration) *CreditLedger {
	if halfLife <= 0 {
		halfLife = DefaultCreditHalfLife
	}
	return &CreditLedger{
		halfLife: halfLife,
		entries:  make(map[PeerID]*creditEntry),
	}
}

func (e *creditEntry) decayTo(now time.Duration, half time.Duration) {
	if now <= e.at {
		return
	}
	e.value *= math.Exp2(-float64(now-e.at) / float64(half))
	e.at = now
}

// Add credits n bytes received from peer id at virtual time now.
func (l *CreditLedger) Add(id PeerID, n int64, now time.Duration) {
	if n <= 0 {
		return
	}
	e, ok := l.entries[id]
	if !ok {
		e = &creditEntry{at: now}
		l.entries[id] = e
	}
	e.decayTo(now, l.halfLife)
	e.value += float64(n)
}

// Credit returns the decayed byte total for peer id at time now.
func (l *CreditLedger) Credit(id PeerID, now time.Duration) float64 {
	e, ok := l.entries[id]
	if !ok {
		return 0
	}
	e.decayTo(now, l.halfLife)
	return e.value
}

// Rate converts the decayed credit into an equivalent long-term transfer
// rate in bytes/second — the "goodness" score chokers blend with the
// short-term rate estimate so a known identity re-earns service quickly
// after reconnecting.
func (l *CreditLedger) Rate(id PeerID, now time.Duration) float64 {
	return l.Credit(id, now) / l.halfLife.Seconds()
}
