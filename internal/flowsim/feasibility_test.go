package flowsim

import (
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/topo"
	"repro/internal/units"
	"repro/internal/workload"
)

// detourOnlyGraph is the minimal topology whose INRP allocation under
// blind planning overloads an arc with landed detour traffic alone: the
// direct S→T link is fat, the S→D→T detour is thin, and blind planning
// dumps the full overflow onto it regardless of residuals.
//
//	S ──10Mbps── T
//	 \          /
//	 1Mbps  1Mbps
//	   \      /
//	      D
func detourOnlyGraph() *topo.Graph {
	g := topo.New("detour-only")
	g.AddNodes(3)
	const s, t, d = 0, 1, 2
	g.MustAddLink(s, t, 10*units.Mbps, time.Millisecond)
	g.MustAddLink(s, d, units.Mbps, time.Millisecond)
	g.MustAddLink(d, t, units.Mbps, time.Millisecond)
	return g
}

// TestEnforceFeasibilityDetourOnly is the regression test for the
// detour-only overload branch: four 5Mbps-capped flows push 20Mbps at a
// 10Mbps link whose only (blind-planned) detour fits 1Mbps. The seed
// implementation detected the overload, incremented Backpressured, and
// silently returned with an infeasible 20Mbps allocation; the fix
// shrinks the over-grant to the detour's capacity and rate-caps the
// flows, so the allocation must now respect every arc.
func TestEnforceFeasibilityDetourOnly(t *testing.T) {
	g := detourOnlyGraph()
	cfg := Config{
		Graph:     g,
		Policy:    INRP,
		DemandCap: 5 * units.Mbps,
		Planner:   core.PlannerConfig{Mode: core.Blind, ExtraHop: false, MaxCandidates: 8},
	}
	cfg.PoolingRounds = 4
	r := &runner{cfg: cfg, g: g}
	r.init()
	for i := 0; i < 4; i++ {
		f := workload.Flow{ID: i, Src: 0, Dst: 1, Size: 100 * units.MB}
		if err := r.admit(f, 0); err != nil {
			t.Fatal(err)
		}
	}

	rates, _ := r.allocate()
	if r.res.Backpressured == 0 {
		t.Fatal("expected the back-pressure pass to fire")
	}

	// The allocation must be feasible: direct traffic plus landed detour
	// traffic within every arc's capacity.
	total := 0.0
	for _, rate := range rates {
		total += rate
	}
	direct := 10e6 // S→T capacity
	detour := 1e6  // S→D / D→T capacity
	if total > direct+detour+1 {
		t.Fatalf("infeasible allocation: flows carry %.3gbps over %.3gbps of capacity", total, direct+detour)
	}
	// And it should not be needlessly conservative: the direct link plus
	// the shrunken detour grant are both usable.
	if total < direct-1e3 {
		t.Fatalf("over-throttled allocation: flows carry %.3gbps, direct path alone fits %.3gbps", total, direct)
	}
	// The surviving detour grant must match what the thin path can carry.
	grantTotal := 0.0
	for a := 0; a < r.nArcs; a++ {
		grantTotal += r.grantsFor[a]
	}
	if grantTotal > detour+1 {
		t.Fatalf("detour grants %.3gbps exceed the detour path's %.3gbps", grantTotal, detour)
	}
	// No arc may end the pass overloaded.
	for a := 0; a < r.nArcs; a++ {
		load := r.detourLoad[a] + r.primaryLoad[a] - r.grantsFor[a]
		if load > r.capBase[a]+saturationEps(r.capBase[a])+1e-6 {
			t.Fatalf("arc %d still overloaded: %.4g over %.4g", a, load, r.capBase[a])
		}
	}
}

// TestClassAllocatorEquivalenceBackpressure drives both allocators
// through the detour-only overload so the feasibility cut path — class
// cuts, grant shrinking and the Backpressured counter — is covered by
// the bit-identity property, not just the random trials (where
// capacity-aware planning keeps allocations feasible by construction).
func TestClassAllocatorEquivalenceBackpressure(t *testing.T) {
	g := detourOnlyGraph()
	cfg := Config{
		Graph:     g,
		Policy:    INRP,
		DemandCap: 5 * units.Mbps,
		Planner:   core.PlannerConfig{Mode: core.Blind, ExtraHop: false, MaxCandidates: 8},
	}
	cfg.PoolingRounds = 4

	mk := func() *runner {
		r := &runner{cfg: cfg, g: g}
		r.init()
		for i := 0; i < 4; i++ {
			f := workload.Flow{ID: i, Src: 0, Dst: 1, Size: 100 * units.MB}
			if err := r.admit(f, 0); err != nil {
				t.Fatal(err)
			}
		}
		return r
	}

	ref := mk()
	refRates, refHops := ref.allocateRef()
	got := mk()
	rates, hops := got.allocate()

	checkEqual(t, 0, "rates", refRates, rates)
	checkEqual(t, 0, "hopsExp", refHops, hops)
	if ref.res.Backpressured != got.res.Backpressured {
		t.Fatalf("Backpressured %d (reference) vs %d (class-based)",
			ref.res.Backpressured, got.res.Backpressured)
	}
	if ref.detourRate != got.detourRate {
		t.Fatalf("detourRate %v vs %v", ref.detourRate, got.detourRate)
	}
	if math.IsNaN(rates[0]) {
		t.Fatal("NaN rate")
	}
}

// TestEnforceFeasibilityBlindOvergrant is the regression test for the
// back-pressure fallback. Blind planning hands every saturated arc the
// optimistic 1e15 bits/s of the non-final rounds, so the final plan
// lands petabit-scale detours, and shrinking one arc's grants overloads
// their source arcs in turn. The nArcs passes used to run out with arcs
// still overloaded by orders of magnitude; now the grants are withdrawn
// and primary traffic alone is capped, so the allocation is feasible.
func TestEnforceFeasibilityBlindOvergrant(t *testing.T) {
	g := topo.Grid(3, 3)
	cfg := Config{
		Graph:         g,
		Policy:        INRP,
		PoolingRounds: 4,
		Planner:       core.PlannerConfig{Mode: core.Blind, ExtraHop: true, MaxCandidates: 8},
	}
	r := &runner{cfg: cfg, g: g}
	r.init()
	id := 0
	for src := 0; src < g.NumNodes(); src++ {
		for dst := 0; dst < g.NumNodes(); dst++ {
			if src == dst {
				continue
			}
			f := workload.Flow{ID: id, Src: topo.NodeID(src), Dst: topo.NodeID(dst), Size: units.MB}
			if err := r.admit(f, 0); err != nil {
				t.Fatal(err)
			}
			id++
		}
	}
	rates, _ := r.allocate()
	if r.res.Backpressured == 0 {
		t.Fatal("expected the back-pressure pass to fire")
	}
	checkFeasible(t, 0, r, rates)
}

// TestEnforceFeasibilityIdleResidue is the regression test for primary
// load left as rounding residue on an arc whose flows no longer send.
// Cutting flows that blind planning inflated to ~1e15 bits/s back down
// can leave a few ulps of 1e15 on a zero-capacity arc; no cut can remove
// that, so the passes used to spin on the arc until they ran out,
// counting a back-pressure event each time, then withdraw every grant
// and spin again. The pass must instead zero the residue and end
// feasible without a back-pressure event.
func TestEnforceFeasibilityIdleResidue(t *testing.T) {
	g := detourOnlyGraph()
	g.Links()[0].Capacity = 0 // S–T
	cfg := Config{Graph: g, Policy: INRP, PoolingRounds: 1, Planner: core.DefaultPlannerConfig()}
	r := &runner{cfg: cfg, g: g}
	r.init()
	if err := r.admit(workload.Flow{ID: 0, Src: 0, Dst: 1, Size: units.MB}, 0); err != nil {
		t.Fatal(err)
	}
	a := r.classes[r.slotClass[r.activeOrder[0]]].arcs[0]
	if r.capBase[a] != 0 {
		t.Fatalf("flow does not cross the zero-capacity link (arc %d capacity %v)", a, r.capBase[a])
	}
	classRate := make([]float64, len(r.classes)) // every flow already cut to 0
	r.primaryLoad[a] = 0.125                     // one ulp of 1e15

	r.enforceFeasibility(classRate, r.primaryLoad)
	if r.res.Backpressured != 0 {
		t.Fatalf("Backpressured = %d, want 0: residue is not overload", r.res.Backpressured)
	}
	if r.primaryLoad[a] != 0 {
		t.Fatalf("primaryLoad[%d] = %v, want the residue zeroed", a, r.primaryLoad[a])
	}
}
