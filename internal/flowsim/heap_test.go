package flowsim

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/topo"
	"repro/internal/units"
	"repro/internal/workload"
)

// TestCompletionHeapOrdering pops a randomly pushed heap and requires
// the strict (tc, seq) order. The coarse tc grid forces many key ties,
// so the seq tiebreak is exercised throughout.
func TestCompletionHeapOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h completionHeap
	var want []completionEntry
	for i := 0; i < 500; i++ {
		e := completionEntry{tc: float64(rng.Intn(50)) / 8, seq: uint64(i), class: int32(rng.Intn(9))}
		h.push(e)
		want = append(want, e)
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].tc != want[j].tc {
			return want[i].tc < want[j].tc
		}
		return want[i].seq < want[j].seq
	})
	for i, w := range want {
		got := h.pop()
		if got != w {
			t.Fatalf("pop %d: got (tc=%v seq=%d), want (tc=%v seq=%d)", i, got.tc, got.seq, w.tc, w.seq)
		}
	}
	if len(h) != 0 {
		t.Fatalf("heap not empty after full drain: %d entries left", len(h))
	}
}

// TestCompletionHeapEqualKeysFIFO pins the deterministic tiebreak: equal
// projected times pop in push (seq) order.
func TestCompletionHeapEqualKeysFIFO(t *testing.T) {
	var h completionHeap
	for seq := uint64(0); seq < 64; seq++ {
		h.push(completionEntry{tc: 1.5, seq: seq, class: int32(seq % 5)})
	}
	for seq := uint64(0); seq < 64; seq++ {
		if got := h.pop(); got.seq != seq {
			t.Fatalf("equal-key pop order: got seq %d, want %d", got.seq, seq)
		}
	}
}

// TestMemberHeapPopsAscendingRemaining drives the per-class member heap
// through admissions of random sizes and requires pops in nondecreasing
// remaining-bits order.
func TestMemberHeapPopsAscendingRemaining(t *testing.T) {
	g := topo.Line(3)
	r := newTestRunner(t, g, SP, 0, 4)
	rng := rand.New(rand.NewSource(11))
	const n = 200
	for i := 0; i < n; i++ {
		f := workload.Flow{ID: i, Src: 0, Dst: 2, Size: units.ByteSize(1 + rng.Intn(1<<20))}
		if err := r.admit(f, 0); err != nil {
			t.Fatal(err)
		}
	}
	c := r.slotClass[r.activeOrder[0]]
	if got := len(r.classes[c].members); got != n {
		t.Fatalf("member heap size %d, want %d", got, n)
	}
	prev := math.Inf(-1)
	for i := 0; i < n; i++ {
		s := r.memberPop(c)
		if r.slotRem[s] < prev {
			t.Fatalf("member pop %d out of order: %v after %v", i, r.slotRem[s], prev)
		}
		prev = r.slotRem[s]
	}
}

// TestCompletionGenerationInvalidation drives the lazy-invalidation
// protocol at the runner level: rate changes and front-member changes
// bump the class generation, orphaned entries are skipped when popped,
// and nextCompletion always returns the exact fresh projection.
func TestCompletionGenerationInvalidation(t *testing.T) {
	g := topo.Line(3)
	r := newTestRunner(t, g, SP, 0, 4)
	mustAdmit := func(f workload.Flow, now float64) {
		t.Helper()
		if err := r.admit(f, now); err != nil {
			t.Fatalf("admit flow %d: %v", f.ID, err)
		}
	}
	// Two flows share the 0→2 class on a 10 Gbps line: 5 Gbps each.
	mustAdmit(workload.Flow{ID: 1, Src: 0, Dst: 2, Size: 100 * units.MB}, 0)
	mustAdmit(workload.Flow{ID: 2, Src: 0, Dst: 2, Size: 200 * units.MB}, 0)
	c := r.slotClass[r.activeOrder[0]]

	r.refreshCompletions(0, r.allocateClasses())
	gen1 := r.classGen[c]
	if len(r.cheap) != 1 {
		t.Fatalf("after first refresh: %d heap entries, want 1", len(r.cheap))
	}
	wantTC := (100 * units.MB).Bits() / r.classRate[c] // front member at the shared rate
	if tc := r.nextCompletion(0); tc != wantTC {
		t.Fatalf("nextCompletion = %v, want %v", tc, wantTC)
	}

	// A third member changes the class rate (10/3 Gbps): the refresh must
	// bump the generation, orphaning the old entry.
	mustAdmit(workload.Flow{ID: 3, Src: 0, Dst: 2, Size: 300 * units.MB}, 0)
	r.refreshCompletions(0, r.allocateClasses())
	if r.classGen[c] == gen1 {
		t.Fatalf("generation not bumped on rate change")
	}
	if len(r.cheap) != 2 {
		t.Fatalf("after rate change: %d heap entries, want 2 (one stale, one live)", len(r.cheap))
	}
	rate := r.classRate[c]
	wantTC = (100 * units.MB).Bits() / rate
	if tc := r.nextCompletion(0); tc != wantTC {
		t.Fatalf("nextCompletion after rate change = %v, want %v", tc, wantTC)
	}
	// The stale entry sat at the top (its key was earlier) and must have
	// been discarded on pop, leaving only the refreshed live entry.
	if len(r.cheap) != 1 {
		t.Fatalf("stale entry not discarded: %d heap entries, want 1", len(r.cheap))
	}
	if r.cheap[0].gen != r.classGen[c] {
		t.Fatalf("surviving entry gen %d, want live gen %d", r.cheap[0].gen, r.classGen[c])
	}

	// Completing the front member (the event loop's pop + markDirty)
	// orphans the projection again; the next refresh re-projects from the
	// new front at the new two-member rate.
	front := r.memberPop(c)
	r.markDirty(c)
	r.finishSlot(front, 0.16)
	kept := r.activeOrder[:0]
	for _, s := range r.activeOrder {
		if s != front {
			kept = append(kept, s)
		}
	}
	r.activeOrder = kept
	r.refreshCompletions(0.16, r.allocateClasses())
	rate = r.classRate[c]
	wantTC = 0.16 + (200*units.MB).Bits()/rate
	if tc := r.nextCompletion(0.16); tc != wantTC {
		t.Fatalf("nextCompletion after front completion = %v, want %v", tc, wantTC)
	}
}

// FuzzCompletionHeap drives random push / invalidate / pop-live
// sequences against a shadow-slice oracle: the live minimum popped off
// the heap (skipping stale generations) must always equal the (tc, seq)
// minimum over the oracle's live entries.
func FuzzCompletionHeap(f *testing.F) {
	f.Add([]byte{0, 10, 1, 2, 0, 30, 2, 2})
	f.Add([]byte{0, 1, 0, 1, 0, 9, 1, 1, 2, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		const nClasses = 8
		gens := make([]uint32, nClasses)
		var h completionHeap
		var shadow []completionEntry
		var seq uint64

		oracleMin := func() (completionEntry, bool) {
			var best completionEntry
			found := false
			for _, e := range shadow {
				if e.gen != gens[e.class] {
					continue
				}
				if !found || e.tc < best.tc || (e.tc == best.tc && e.seq < best.seq) {
					best, found = e, true
				}
			}
			return best, found
		}
		removeShadow := func(target completionEntry) {
			for i := range shadow {
				if shadow[i].seq == target.seq {
					shadow = append(shadow[:i], shadow[i+1:]...)
					return
				}
			}
			t.Fatalf("popped entry seq %d not in shadow", target.seq)
		}
		popLive := func() (completionEntry, bool) {
			for len(h) > 0 {
				top := h.pop()
				if top.gen == gens[top.class] {
					return top, true
				}
			}
			return completionEntry{}, false
		}
		check := func() bool {
			got, ok := popLive()
			want, wantOK := oracleMin()
			if ok != wantOK {
				t.Fatalf("pop-live ok=%v, oracle ok=%v (heap %d, shadow %d)", ok, wantOK, len(h), len(shadow))
			}
			if !ok {
				return false
			}
			if got != want {
				t.Fatalf("pop-live got (tc=%v seq=%d class=%d), oracle wants (tc=%v seq=%d class=%d)",
					got.tc, got.seq, got.class, want.tc, want.seq, want.class)
			}
			removeShadow(got)
			return true
		}

		for i := 0; i < len(data); i++ {
			switch data[i] % 3 {
			case 0: // push
				i++
				if i >= len(data) {
					break
				}
				b := data[i]
				class := int32(b % nClasses)
				e := completionEntry{tc: float64(b%32) / 4, seq: seq, class: class, gen: gens[class]}
				seq++
				h.push(e)
				shadow = append(shadow, e)
			case 1: // invalidate a class: all its current entries go stale
				i++
				if i >= len(data) {
					break
				}
				gens[data[i]%nClasses]++
			case 2: // pop the live minimum and compare with the oracle
				check()
			}
		}
		for check() {
		}
	})
}
