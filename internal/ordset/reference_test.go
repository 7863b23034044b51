package ordset

import (
	"math/rand"
	"testing"
)

// refSet is the independent model Set is checked against (ROADMAP item 5a):
// a plain map for the values and an explicit slot array for the order, with
// every slot found by scanning. It shares no code and no trick with Set — no
// key → slot map to keep coherent — so agreeing with it over random histories
// is evidence about Set, not about a second copy of the same idea.
// internal/bt checks its own request index against Set the same way
// (TestRequestIndexMatchesOrdset), which ties that index to this model too.
type refSet struct {
	vals  map[int]int
	order []int
}

func (r *refSet) slotOf(k int) int {
	for i, q := range r.order {
		if q == k {
			return i
		}
	}
	return -1
}

func (r *refSet) put(k, v int) bool {
	if r.vals == nil {
		r.vals = map[int]int{}
	}
	_, had := r.vals[k]
	r.vals[k] = v
	if !had {
		r.order = append(r.order, k) // a new key takes the next slot
	}
	return !had
}

func (r *refSet) delete(k int) (int, bool) {
	i := r.slotOf(k)
	if i < 0 {
		return 0, false
	}
	v := r.vals[k]
	delete(r.vals, k)
	last := len(r.order) - 1
	r.order[i] = r.order[last] // the last entry fills the vacated slot
	r.order = r.order[:last]
	return v, true
}

func (r *refSet) swap(i, j int) { r.order[i], r.order[j] = r.order[j], r.order[i] }

func sameAsReference(t *testing.T, step int, s *Set[int, int], r *refSet) {
	t.Helper()
	if s.Len() != len(r.order) {
		t.Fatalf("step %d: Len = %d, reference %d", step, s.Len(), len(r.order))
	}
	for i, k := range r.order {
		if s.KeyAt(i) != k || s.ValAt(i) != r.vals[k] {
			t.Fatalf("step %d: slot %d holds (%d, %d), reference (%d, %d)",
				step, i, s.KeyAt(i), s.ValAt(i), k, r.vals[k])
		}
		if v, ok := s.Get(k); !ok || v != r.vals[k] {
			t.Fatalf("step %d: Get(%d) = %d, %v, reference %d", step, k, v, ok, r.vals[k])
		}
	}
	s.CheckCoherent(func(detail string) { t.Fatalf("step %d: incoherent set: %s", step, detail) })
}

// TestSetMatchesReference drives Set and the reference through the same few
// hundred random histories — Put of a new key, overwrite, Delete of present
// and absent keys, Swap, and the drain-slot-0 loop bt's returnRequests runs —
// and compares every slot after every operation.
func TestSetMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var s Set[int, int]
		var r refSet
		keys := 4 + rng.Intn(40) // small key space: overwrites and re-inserts are common
		for step := 0; step < 200; step++ {
			k, v := rng.Intn(keys), rng.Int()
			switch op := rng.Intn(10); {
			case op < 5:
				if got, want := s.Put(k, v), r.put(k, v); got != want {
					t.Fatalf("seed %d step %d: Put(%d) inserted = %v, reference %v", seed, step, k, got, want)
				}
			case op < 8:
				gv, gok := s.Delete(k)
				wv, wok := r.delete(k)
				if gv != wv || gok != wok {
					t.Fatalf("seed %d step %d: Delete(%d) = %d, %v, reference %d, %v", seed, step, k, gv, gok, wv, wok)
				}
			case op < 9:
				if n := s.Len(); n > 0 {
					i, j := rng.Intn(n), rng.Intn(n)
					s.Swap(i, j)
					r.swap(i, j)
				}
			default:
				for n := rng.Intn(4); n > 0 && s.Len() > 0; n-- {
					head := s.KeyAt(0)
					s.Delete(head)
					r.delete(head)
					sameAsReference(t, step, &s, &r)
				}
			}
			sameAsReference(t, step, &s, &r)
		}
	}
}
