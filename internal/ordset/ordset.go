// Package ordset provides the deterministic ordered index the hot
// directory paths share: a hash map whose entries also live in a dense
// array of integer slots.
//
// Plain Go maps randomize iteration order per run, so every code path that
// needs to walk one reproducibly used to materialize the keys and sort —
// O(n log n) per operation, which is exactly the cost profile that made
// tracker announces dominate large-swarm wall time. A Set keeps the
// entries in a dense array (handles are assigned at first insert, vacated
// slots are refilled by swap-remove) next to a key→slot map, so:
//
//   - insert, update, delete, and membership are O(1);
//   - iteration order is a pure function of the operation history — the
//     same event trajectory always yields the same order, which is all
//     the determinism discipline (DESIGN.md §13) requires;
//   - drawing a k-element uniform sample is O(k) via a partial
//     Fisher–Yates walk over the slots, no full sort or full shuffle.
//
// The order is deterministic but NOT sorted: swap-remove and sampling
// permute the array. Callers that need a canonical order (digest hooks,
// report tables) must impose their own; callers on the hot path get the
// reproducible order for free.
package ordset

import (
	"fmt"
	"math/rand"
)

// Set is a deterministic densely-indexed collection. The zero value is
// ready to use.
type Set[K comparable, V any] struct {
	slot map[K]int
	keys []K
	vals []V
}

// New returns a Set with capacity hint n.
func New[K comparable, V any](n int) *Set[K, V] {
	return &Set[K, V]{
		slot: make(map[K]int, n),
		keys: make([]K, 0, n),
		vals: make([]V, 0, n),
	}
}

// Len returns the entry count. A nil *Set counts as empty, so callers
// keeping sets in a lazily-populated map can size and guard without a
// nil check.
func (s *Set[K, V]) Len() int {
	if s == nil {
		return 0
	}
	return len(s.keys)
}

// Has reports membership.
func (s *Set[K, V]) Has(k K) bool {
	_, ok := s.slot[k]
	return ok
}

// Get returns the value stored under k.
func (s *Set[K, V]) Get(k K) (V, bool) {
	if i, ok := s.slot[k]; ok {
		return s.vals[i], true
	}
	var zero V
	return zero, false
}

// Val returns the value stored under k, or the zero value when absent —
// the map-index idiom for slice-valued entries.
func (s *Set[K, V]) Val(k K) V {
	v, _ := s.Get(k)
	return v
}

// Put inserts or overwrites the value under k and reports whether the key
// was newly inserted. A new key takes the next dense slot.
func (s *Set[K, V]) Put(k K, v V) bool {
	if i, ok := s.slot[k]; ok {
		s.vals[i] = v
		return false
	}
	if s.slot == nil {
		s.slot = make(map[K]int)
	}
	s.slot[k] = len(s.keys)
	s.keys = append(s.keys, k)
	s.vals = append(s.vals, v)
	return true
}

// Delete removes k by swapping the last entry into its slot, returning the
// removed value. The relative order of the remaining entries changes, but
// deterministically.
func (s *Set[K, V]) Delete(k K) (V, bool) {
	var zero V
	i, ok := s.slot[k]
	if !ok {
		return zero, false
	}
	v := s.vals[i]
	last := len(s.keys) - 1
	if i != last {
		s.keys[i] = s.keys[last]
		s.vals[i] = s.vals[last]
		s.slot[s.keys[i]] = i
	}
	s.keys[last] = zeroKey[K]()
	s.vals[last] = zero
	s.keys = s.keys[:last]
	s.vals = s.vals[:last]
	delete(s.slot, k)
	return v, true
}

func zeroKey[K comparable]() K {
	var z K
	return z
}

// KeyAt returns the key in slot i.
func (s *Set[K, V]) KeyAt(i int) K { return s.keys[i] }

// ValAt returns the value in slot i.
func (s *Set[K, V]) ValAt(i int) V { return s.vals[i] }

// Swap exchanges slots i and j, keeping the key→slot map coherent.
func (s *Set[K, V]) Swap(i, j int) {
	if i == j {
		return
	}
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
	s.vals[i], s.vals[j] = s.vals[j], s.vals[i]
	s.slot[s.keys[i]] = i
	s.slot[s.keys[j]] = j
}

// Range visits every entry in slot order. The set must not be mutated
// during the walk.
func (s *Set[K, V]) Range(visit func(k K, v V) bool) {
	for i := range s.keys {
		if !visit(s.keys[i], s.vals[i]) {
			return
		}
	}
}

// SampleExcluding visits min(want, Len()-x) distinct entries drawn
// uniformly at random, where x is 1 when exclude is present and 0
// otherwise; the excluded key is never visited. The draw is a partial
// Fisher–Yates walk: O(want) swaps and at most want RNG draws, instead of
// the full-shuffle O(n). It permutes the slot order as it goes, which is
// fine under the determinism discipline — the resulting order is still a
// pure function of the operation history and the (seeded) RNG stream.
func (s *Set[K, V]) SampleExcluding(r *rand.Rand, want int, exclude K, visit func(k K, v V)) int {
	m := len(s.keys)
	if i, ok := s.slot[exclude]; ok {
		// Park the excluded entry in the last slot and sample before it.
		s.Swap(i, m-1)
		m--
	}
	want = min(want, m)
	for i := 0; i < want; i++ {
		// No draw for a forced choice, so tiny swarms consume no RNG —
		// matching the old full-shuffle's draw count on the figure-scale
		// paths.
		if n := m - i; n > 1 {
			s.Swap(i, i+r.Intn(n))
		}
		visit(s.keys[i], s.vals[i])
	}
	return want
}

// CheckCoherent reports slot-map ↔ array incoherence — the structural
// invariant internal/check sweeps enforce on every registered index.
func (s *Set[K, V]) CheckCoherent(report func(detail string)) {
	if len(s.keys) != len(s.vals) {
		report(fmt.Sprintf("key array has %d entries, value array %d", len(s.keys), len(s.vals)))
		return
	}
	if len(s.slot) != len(s.keys) {
		report(fmt.Sprintf("slot map has %d entries, key array %d", len(s.slot), len(s.keys)))
		return
	}
	for i, k := range s.keys {
		if j, ok := s.slot[k]; !ok || j != i {
			report(fmt.Sprintf("slot map points key %v at slot %d, found in slot %d", k, j, i))
			return
		}
	}
}
