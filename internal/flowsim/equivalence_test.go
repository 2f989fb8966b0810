package flowsim

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/topo"
	"repro/internal/units"
	"repro/internal/workload"
)

// This file keeps the seed's per-flow allocator alive as the equivalence
// oracle for the flow-class allocator: allocateRef below is the original
// implementation (progressiveFill over individual flows, per-flow
// feasibility), extended only by the same detour-grant shrink fix the
// class-based path gained. The property tests drive both allocators over
// random graphs and workloads — elastic and demand-capped, SP and INRP
// with pooling rounds, across admit/finish churn — and require
// bit-identical rates, expected hops and back-pressure counts. The
// reference runs every pooling round and scans every arc, so it is also
// the oracle for allocateINRP's fixpoint exit and narrowed sweeps.
//
// It also retains the scan-based event loop as runRef: the oracle for
// the completion-heap loop in run(). TestRunHeapVsScanEquivalence
// requires the two loops to produce DeepEqual Results — every float in
// every field — over random graphs, workloads and policies.
//
// Every driver also checks the feasibility invariant after every
// allocation.

// allocateRef is the retained per-flow reference allocator.
func (r *runner) allocateRef() (rates []float64, hopsExp []float64) {
	paths := make([][]int32, len(r.activeOrder))
	hopsExp = make([]float64, len(r.activeOrder))
	for i, s := range r.activeOrder {
		cl := &r.classes[r.slotClass[s]]
		paths[i] = cl.arcs
		hopsExp[i] = cl.hops
	}
	var caps []float64
	if r.cfg.DemandCap > 0 {
		caps = make([]float64, len(r.activeOrder))
		for i := range caps {
			caps[i] = float64(r.cfg.DemandCap)
		}
	}

	if r.cfg.Policy != INRP {
		r.detourRate = 0
		return progressiveFill(paths, r.capBase, caps), hopsExp
	}
	return r.allocateINRPRef(paths, hopsExp, caps)
}

// allocateINRPRef is the seed per-flow pooling fixpoint.
func (r *runner) allocateINRPRef(paths [][]int32, hopsExp []float64, caps []float64) ([]float64, []float64) {
	n := r.nArcs
	zero(r.grantsFor)
	zero(r.detourLoad)
	zero(r.extraWeighted)
	r.grantRecs = r.grantRecs[:0]

	capEff := make([]float64, n)
	primaryLoad := make([]float64, n)
	var rates []float64

	for round := 0; round < r.cfg.PoolingRounds; round++ {
		final := round == r.cfg.PoolingRounds-1

		for a := 0; a < n; a++ {
			capEff[a] = r.capBase[a] + r.grantsFor[a]
		}
		rates = progressiveFill(paths, capEff, caps)

		zero(primaryLoad)
		for i, p := range paths {
			for _, a := range p {
				primaryLoad[a] += rates[i]
			}
		}

		var cands []congested
		for a := 0; a < n; a++ {
			over := primaryLoad[a] - r.capBase[a]
			saturated := r.capBase[a]-primaryLoad[a] <= saturationEps(r.capBase[a])
			if over > saturationEps(r.capBase[a]) || (!final && saturated) {
				cands = append(cands, congested{arc: a, over: over})
			}
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].over != cands[j].over {
				return cands[i].over > cands[j].over
			}
			return cands[i].arc < cands[j].arc
		})

		zero(r.grantsFor)
		zero(r.detourLoad)
		zero(r.extraWeighted)
		r.grantRecs = r.grantRecs[:0]
		for _, c := range cands {
			req := primaryLoad[c.arc] + r.detourLoad[c.arc] - r.capBase[c.arc]
			if !final {
				req = optimisticOverflow
			}
			if req <= 0 {
				continue
			}
			a := c.arc
			residual := func(b topo.Arc) units.BitRate {
				bi := arcIndex(b)
				res := r.capBase[bi] - primaryLoad[bi] - r.detourLoad[bi]
				if res < 0 {
					return 0
				}
				return units.BitRate(res)
			}
			grants, _ := r.planner.Plan(r.arcBack[a], bitRate(req), residual)
			for _, gr := range grants {
				rate := float64(gr.Rate)
				r.grantsFor[a] += rate
				r.extraWeighted[a] += rate * float64(gr.Sub.Extra)
				for _, b := range gr.Arcs {
					r.detourLoad[arcIndex(b)] += rate
				}
				r.grantRecs = append(r.grantRecs, grantRec{
					src: a, rate: rate, extra: float64(gr.Sub.Extra), arcs: gr.Arcs,
				})
			}
		}
	}

	r.enforceFeasibilityRef(paths, rates, primaryLoad)

	r.detourRate = 0
	for a := 0; a < r.nArcs; a++ {
		r.detourRate += r.grantsFor[a]
	}
	for i, p := range paths {
		extra := 0.0
		for _, a := range p {
			if r.grantsFor[a] <= 0 || primaryLoad[a] <= 0 {
				continue
			}
			phi := r.grantsFor[a] / primaryLoad[a]
			if phi > 1 {
				phi = 1
			}
			extra += phi * (r.extraWeighted[a] / r.grantsFor[a])
		}
		hopsExp[i] += extra
	}
	return rates, hopsExp
}

// enforceFeasibilityRef is the seed per-flow back-pressure pass, with the
// detour-only overload branch fixed the same way as the class-based path
// (shared shrinkGrants helper), and the same fallback when the passes
// end infeasible: withdraw every grant and cap primary traffic alone.
func (r *runner) enforceFeasibilityRef(paths [][]int32, rates, primaryLoad []float64) {
	if r.cutOverloadsRef(paths, rates, primaryLoad) {
		return
	}
	r.withdrawGrants()
	r.cutOverloadsRef(paths, rates, primaryLoad)
}

// cutOverloadsRef is the per-flow pass loop of enforceFeasibilityRef; it
// reports whether every arc ended within capacity.
func (r *runner) cutOverloadsRef(paths [][]int32, rates, primaryLoad []float64) bool {
	for pass := 0; pass < r.nArcs; pass++ {
		worst, worstExcess := -1, 0.0
		for a := 0; a < r.nArcs; a++ {
			direct := primaryLoad[a] - r.grantsFor[a]
			excess := direct + r.detourLoad[a] - r.capBase[a]
			if excess > saturationEps(r.capBase[a])+1e-9 && excess > worstExcess {
				worst, worstExcess = a, excess
			}
		}
		if worst < 0 {
			return true
		}
		if primaryLoad[worst] <= 0 {
			r.res.Backpressured++
			if !r.shrinkGrants(worst, worstExcess) {
				return false
			}
			continue
		}
		factor := 1 - worstExcess/primaryLoad[worst]
		if factor < 0 {
			factor = 0
		}
		sending := false
		for i, p := range paths {
			onArc := false
			for _, a := range p {
				if a == int32(worst) {
					onArc = true
					break
				}
			}
			if !onArc {
				continue
			}
			sending = sending || rates[i] > 0
			cut := rates[i] * (1 - factor)
			rates[i] -= cut
			for _, a := range p {
				primaryLoad[a] -= cut
			}
		}
		if !sending {
			primaryLoad[worst] = 0
			continue
		}
		r.res.Backpressured++
	}
	return false
}

// checkFeasible asserts the allocator's feasibility invariant on the
// allocation just made: on every arc, the direct primary traffic plus
// the detour traffic landed on it stays within capacity — the condition
// enforceFeasibility establishes. Every arc is checked, not only the
// ones the allocator's narrowed scans visit.
//
// For INRP the invariant is checked on the allocator's own bookkeeping
// (primaryLoad less grantsFor plus detourLoad), and on loads recomputed
// from the per-flow rates. Under blind planning only the bookkeeping is
// held to the bound: blind grants are petabit-scale, flows fill into
// them, and the cuts that bring them back leave primaryLoad a few ulps
// of 1e15 (about 0.1 bits/s) away from the sum of the cut rates.
func checkFeasible(t *testing.T, trial int, r *runner, rates []float64) {
	t.Helper()
	load := make([]float64, r.nArcs)
	for i, s := range r.activeOrder {
		for _, a := range r.classes[r.slotClass[s]].arcs {
			load[a] += rates[i]
		}
	}
	inrp := r.cfg.Policy == INRP
	blind := r.cfg.Planner.Mode == core.Blind
	for a := range load {
		limit := r.capBase[a] + saturationEps(r.capBase[a]) + 1e-9
		if inrp {
			if l := r.primaryLoad[a] - r.grantsFor[a] + r.detourLoad[a]; l > limit {
				t.Fatalf("trial %d: INRP arc %d carries %v over capacity %v (primary %v, grants %v, landed detours %v)",
					trial, a, l, r.capBase[a], r.primaryLoad[a], r.grantsFor[a], r.detourLoad[a])
			}
			if blind {
				continue
			}
		}
		l := load[a]
		if inrp {
			l += r.detourLoad[a] - r.grantsFor[a]
		}
		if l > limit {
			t.Fatalf("trial %d: %v arc %d carries %v (from rates) over capacity %v (grants %v, landed detours %v)",
				trial, r.cfg.Policy, a, l, r.capBase[a], r.grantsFor[a], r.detourLoad[a])
		}
	}
}

// newTestRunner builds an initialised runner over g without running the
// event loop.
func newTestRunner(t *testing.T, g *topo.Graph, pol Policy, cap units.BitRate, rounds int) *runner {
	t.Helper()
	cfg := Config{Graph: g, Policy: pol, DemandCap: cap}
	cfg.PoolingRounds = rounds
	cfg.Planner = core.DefaultPlannerConfig()
	r := &runner{cfg: cfg, g: g}
	r.init()
	return r
}

// randomGraph samples a small random connected topology.
func randomGraph(rng *rand.Rand) *topo.Graph {
	var g *topo.Graph
	switch rng.Intn(3) {
	case 0:
		g = topo.ErdosRenyi(6+rng.Intn(10), 0.35, rng.Int63())
	case 1:
		g = topo.BarabasiAlbert(8+rng.Intn(10), 2, rng.Int63())
	default:
		g = topo.Waxman(8+rng.Intn(8), 0.6, 0.4, rng.Int63())
	}
	topo.Connect(g)
	// Tight uniform capacities put many arcs near saturation, making the
	// fill's freeze ordering nontrivial.
	g.SetAllCapacities(units.BitRate(50+rng.Intn(200)) * units.Mbps)
	return g
}

// checkEqual requires two float slices to hold equal, bit-identical
// values: −0 ≠ +0 (math.Float64bits), and a NaN on either side fails.
func checkEqual(t *testing.T, trial int, what string, ref, got []float64) {
	t.Helper()
	if len(ref) != len(got) {
		t.Fatalf("trial %d: %s length %d vs %d", trial, what, len(ref), len(got))
	}
	for i := range ref {
		if ref[i] != got[i] || math.Float64bits(ref[i]) != math.Float64bits(got[i]) {
			t.Fatalf("trial %d: %s[%d] differs: reference %v, got %v (Δ=%g)",
				trial, what, i, ref[i], got[i], got[i]-ref[i])
		}
	}
}

// driveEquivalence admits a random workload in arrival order, invoking
// both allocators after every admit batch and after random finishes, and
// requires bit-identical outputs throughout: per-flow rates and expected
// hops, Backpressured, detourRate and, for INRP, the final plan's
// grantsFor and detourLoad. It checks feasibility after every
// allocation. Class fills per allocation tell how the class-based
// pooling loop ended; with two or more rounds, driveEquivalence counts
// the INRP allocations that stopped at a fixpoint reached in round 0
// (one fill) and those that never reached one (a fill every round).
func driveEquivalence(t *testing.T, trial int, r *runner, flows []workload.Flow, rng *rand.Rand) (round0, never int) {
	t.Helper()
	fills := obs.New("equivalence").Counter("flowsim_class_fills")
	r.mClassFills = fills
	rounds := int64(r.cfg.PoolingRounds)
	next := 0
	for next < len(flows) || len(r.activeOrder) > 0 {
		// Admit a batch.
		batch := 1 + rng.Intn(4)
		for b := 0; b < batch && next < len(flows); b++ {
			if err := r.admit(flows[next], flows[next].Arrival.Seconds()); err != nil {
				// Unreachable endpoint in a random graph: skip the flow.
				next++
				b--
				continue
			}
			next++
		}

		bp := r.res.Backpressured
		refRates, refHops := r.allocateRef()
		refBP := r.res.Backpressured - bp
		refDetour := r.detourRate
		// Copy: the reference shares no buffers with allocate, but keep
		// the comparison honest against scratch reuse.
		refRates = append([]float64(nil), refRates...)
		refHops = append([]float64(nil), refHops...)
		refGrants := append([]float64(nil), r.grantsFor...)
		refDetourLoad := append([]float64(nil), r.detourLoad...)

		r.res.Backpressured = bp
		before := fills.Value()
		rates, hops := r.allocate()
		n := fills.Value() - before
		gotBP := r.res.Backpressured - bp

		checkEqual(t, trial, "rates", refRates, rates)
		checkEqual(t, trial, "hopsExp", refHops, hops)
		checkEqual(t, trial, "detourRate", []float64{refDetour}, []float64{r.detourRate})
		checkFeasible(t, trial, r, rates)
		if refBP != gotBP {
			t.Fatalf("trial %d: Backpressured %d (reference) vs %d (class-based)", trial, refBP, gotBP)
		}
		if r.cfg.Policy == INRP {
			checkEqual(t, trial, "grantsFor", refGrants, r.grantsFor)
			checkEqual(t, trial, "detourLoad", refDetourLoad, r.detourLoad)
			if rounds >= 2 && n == 1 {
				round0++
			}
			if rounds >= 2 && n == rounds {
				never++
			}
		}

		// Finish a random subset, exercising incremental class membership
		// (and slot reuse: finished slots return to the free list).
		if len(r.activeOrder) > 0 && rng.Intn(2) == 0 {
			kept := r.activeOrder[:0]
			for _, s := range r.activeOrder {
				if rng.Intn(3) == 0 {
					r.finishSlot(s, r.slotArrival[s]+1)
					continue
				}
				kept = append(kept, s)
			}
			r.activeOrder = kept
		}
		if next >= len(flows) {
			// Drain everything to terminate.
			for _, s := range r.activeOrder {
				r.finishSlot(s, r.slotArrival[s]+1)
			}
			r.activeOrder = r.activeOrder[:0]
		}
	}
	return round0, never
}

// TestClassAllocatorEquivalence is the tentpole property test: on random
// graphs and workloads, the class-based allocator must produce
// bit-identical results to the retained per-flow reference — elastic and
// demand-capped, SP/ECMP/INRP with 1–6 pooling rounds, capacity-aware
// and blind planning (blind planning over-grants and forces
// back-pressure), generous capacities that leave nothing to pool, and
// zero-capacity links. The reference runs every round over every arc, so
// this also checks allocateINRP's fixpoint exit and narrowed sweeps, and
// both ends of the exit must actually occur: allocations that converge
// in round 0, and allocations that never converge.
func TestClassAllocatorEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	trials := 120
	if testing.Short() {
		trials = 30
	}
	var round0, never int
	for trial := 0; trial < trials; trial++ {
		g := randomGraph(rng)
		switch rng.Intn(4) {
		case 0:
			g.SetAllCapacities(100 * units.Gbps)
		case 1:
			// Zero-capacity arcs are saturated with or without traffic,
			// so non-final rounds plan detours for them even when no
			// flow crosses them.
			links := g.Links()
			for k := 0; k < 1+rng.Intn(3); k++ {
				links[rng.Intn(len(links))].Capacity = 0
			}
		}
		cfg := Config{
			Graph:         g,
			Policy:        []Policy{SP, ECMP, INRP, INRP}[rng.Intn(4)],
			PoolingRounds: 1 + rng.Intn(6),
			Planner:       core.DefaultPlannerConfig(),
		}
		if rng.Intn(3) == 0 {
			cfg.Planner.Mode = core.Blind
		}
		if rng.Intn(2) == 0 {
			cfg.DemandCap = units.BitRate(20+rng.Intn(100)) * units.Mbps
		}
		r := &runner{cfg: cfg, g: g}
		r.init()
		flows := workload.Generate(workload.Spec{
			Arrivals: workload.NewPoisson(20, rng.Int63()),
			Sizes:    workload.NewBoundedPareto(1.5, units.MB, 100*units.MB, rng.Int63()),
			Matrix:   workload.NewGravity(g, rng.Int63()),
			Count:    10 + rng.Intn(40),
		})
		r0, nv := driveEquivalence(t, trial, r, flows, rng)
		round0 += r0
		never += nv
	}
	t.Logf("INRP allocations converged in round 0: %d, never converged: %d", round0, never)
	if round0 == 0 || never == 0 {
		t.Fatalf("fixpoint exit cases not reached: round 0 %d, never %d", round0, never)
	}
}

// TestIdleZeroCapacityArcPlanned pins why allocateINRP's scan set holds
// the zero-capacity arcs as well as the weighted ones. A zero-capacity
// arc is saturated with or without traffic, so a non-final round plans
// an optimistic detour for it even when no flow crosses it, and that
// grant takes donor capacity a later candidate would have had. Here the
// idle A→B sorts before the saturated A→D (equal overflow 0, lower arc
// index) and takes the spare A→C that A→D's only detour needs, so the
// A→D flow must stay at the link's 100 Mbps, as the per-flow reference
// has it. Links: A–B at 0, and A–C, C–B, A–D, C–D at 100 Mbps.
func TestIdleZeroCapacityArcPlanned(t *testing.T) {
	g := topo.New("idle-zero-capacity")
	g.AddNodes(4)
	const a, b, c, d = 0, 1, 2, 3
	g.MustAddLink(a, b, 0, time.Millisecond)
	g.MustAddLink(a, c, 100*units.Mbps, time.Millisecond)
	g.MustAddLink(c, b, 100*units.Mbps, time.Millisecond)
	g.MustAddLink(a, d, 100*units.Mbps, time.Millisecond)
	g.MustAddLink(c, d, 100*units.Mbps, time.Millisecond)
	cfg := Config{Graph: g, Policy: INRP, PoolingRounds: 4, Planner: core.DefaultPlannerConfig()}
	r := &runner{cfg: cfg, g: g}
	r.init()
	if err := r.admit(workload.Flow{ID: 0, Src: a, Dst: d, Size: units.MB}, 0); err != nil {
		t.Fatal(err)
	}
	refRates, refHops := r.allocateRef()
	refRates = append([]float64(nil), refRates...)
	refHops = append([]float64(nil), refHops...)
	rates, hops := r.allocate()
	checkEqual(t, 0, "rates", refRates, rates)
	checkEqual(t, 0, "hopsExp", refHops, hops)
	if want := float64(100 * units.Mbps); rates[0] != want {
		t.Fatalf("A→D rate %v, want %v", rates[0], want)
	}
}

// TestClassFillMatchesProgressiveFill drives the weighted class fill
// directly against the per-flow reference on synthetic path sets with
// duplicate paths and mixed caps — including empty paths (unconstrained
// flows) and zero-capacity arcs.
func TestClassFillMatchesProgressiveFill(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 200; trial++ {
		g := randomGraph(rng)
		var cap units.BitRate
		if rng.Intn(2) == 0 {
			cap = units.BitRate(10+rng.Intn(60)) * units.Mbps
		}
		r := newTestRunner(t, g, SP, cap, 4)

		// Admit random flows, many sharing (src, dst) so classes collapse.
		nPairs := 1 + rng.Intn(5)
		type pair struct{ src, dst topo.NodeID }
		pairs := make([]pair, nPairs)
		for i := range pairs {
			pairs[i] = pair{topo.NodeID(rng.Intn(g.NumNodes())), topo.NodeID(rng.Intn(g.NumNodes()))}
		}
		id := 0
		for i := 0; i < 3+rng.Intn(30); i++ {
			p := pairs[rng.Intn(nPairs)]
			f := workload.Flow{ID: id, Src: p.src, Dst: p.dst, Size: units.MB}
			if err := r.admit(f, 0); err != nil {
				continue
			}
			id++
		}

		paths := make([][]int32, len(r.activeOrder))
		for i, s := range r.activeOrder {
			paths[i] = r.classes[r.slotClass[s]].arcs
		}
		var caps []float64
		if cap > 0 {
			caps = make([]float64, len(r.activeOrder))
			for i := range caps {
				caps[i] = float64(cap)
			}
		}
		ref := progressiveFill(paths, r.capBase, caps)
		classRate := r.classFill(r.capBase)
		for i, s := range r.activeOrder {
			if ref[i] != classRate[r.slotClass[s]] {
				t.Fatalf("trial %d: flow %d rate %v (per-flow) vs %v (class)",
					trial, i, ref[i], classRate[r.slotClass[s]])
			}
		}
	}
}

// runRef is the retained scan-based event loop, the oracle for the
// completion-heap loop: per event it scans every active flow for the
// earliest completion, advances each flow by its own rate×dt product,
// and filters completions out of the active list. Identical to the
// pre-heap run() except for operating on the slot arrays.
func (r *runner) runRef(t *testing.T) (*Result, error) {
	flows := r.cfg.Flows
	next := 0
	now := 0.0
	horizon := math.Inf(1)
	if r.cfg.Horizon > 0 {
		horizon = r.cfg.Horizon.Seconds()
	}

	for next < len(flows) && flows[next].Arrival.Seconds() <= now+arrivalSlack {
		if err := r.admit(flows[next], now); err != nil {
			return nil, err
		}
		next++
	}

	for now < horizon && (len(r.activeOrder) > 0 || next < len(flows)) {
		rates, hopsExp := r.allocate()
		checkFeasible(t, -1, r, rates)

		// Next event: first arrival or earliest completion.
		tEvent := horizon
		if next < len(flows) {
			if ta := flows[next].Arrival.Seconds(); ta < tEvent {
				tEvent = ta
			}
		}
		for i, s := range r.activeOrder {
			if rates[i] <= 0 {
				continue
			}
			tc := now + r.slotRem[s]/rates[i]
			if tc < tEvent {
				tEvent = tc
			}
		}
		if math.IsInf(tEvent, 1) || tEvent <= now {
			if next < len(flows) {
				tEvent = flows[next].Arrival.Seconds()
			} else {
				break
			}
		}
		dt := tEvent - now

		// Advance flows and per-arc utilisation accounting.
		for i, s := range r.activeOrder {
			moved := rates[i] * dt
			if moved > r.slotRem[s] {
				moved = r.slotRem[s]
			}
			r.slotRem[s] -= moved
			r.slotDeliv[s] += moved
			r.slotHopBits[s] += moved * hopsExp[i]
			for _, a := range r.classes[r.slotClass[s]].arcs {
				r.arcBusy[a] += moved
			}
			r.satBits += moved
		}
		if r.cfg.DemandCap > 0 {
			r.demandBits += float64(r.cfg.DemandCap) * float64(len(r.activeOrder)) * dt
		}
		if r.cfg.Policy == INRP {
			r.detourBits += r.detourRate * dt
		}
		now = tEvent

		// Completions.
		kept := r.activeOrder[:0]
		for _, s := range r.activeOrder {
			if r.slotRem[s] <= finishEps {
				r.finishSlot(s, now)
				continue
			}
			kept = append(kept, s)
		}
		r.activeOrder = kept
		r.gActive.Set(int64(len(r.activeOrder)))
		if r.sActive != nil {
			r.sActive.Sample(time.Duration(now*float64(time.Second)), float64(len(r.activeOrder)))
		}

		// Arrivals at the new time.
		for next < len(flows) && flows[next].Arrival.Seconds() <= now+arrivalSlack {
			if err := r.admit(flows[next], now); err != nil {
				return nil, err
			}
			next++
		}
	}

	for _, s := range r.activeOrder {
		r.res.Delivered += units.ByteSize(r.slotDeliv[s] / 8)
	}
	r.finalize(now)
	return &r.res, nil
}

// runPair executes the same config through the heap loop and the scan
// oracle on two fresh runners and returns both results.
func runPair(t *testing.T, cfg Config) (heap, scan *Result) {
	t.Helper()
	if cfg.PoolingRounds <= 0 {
		cfg.PoolingRounds = 4
	}
	if cfg.Planner == (core.PlannerConfig{}) {
		cfg.Planner = core.DefaultPlannerConfig()
	}
	mk := func() *runner {
		r := &runner{cfg: cfg, g: cfg.Graph}
		r.init()
		return r
	}
	var err error
	if heap, err = mk().run(); err != nil {
		t.Fatal(err)
	}
	if scan, err = mk().runRef(t); err != nil {
		t.Fatal(err)
	}
	return heap, scan
}

// checkRunEqual requires the two loops' Results to be deeply equal —
// bit-identical floats in every scalar and every slice.
func checkRunEqual(t *testing.T, trial int, heap, scan *Result) {
	t.Helper()
	if !reflect.DeepEqual(*heap, *scan) {
		t.Fatalf("trial %d: heap loop diverged from scan oracle\nheap: %+v\nscan: %+v",
			trial, *heap, *scan)
	}
}

// TestRunHeapVsScanEquivalence is the event-loop property test: over
// random graphs, workloads and policies — elastic and demand-capped,
// arrival churn, zero-rate stalls from zero-capacity links, finite and
// unbounded horizons — the completion-heap loop must produce a Result
// DeepEqual to the retained scan loop's.
func TestRunHeapVsScanEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	trials := 48
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		g := randomGraph(rng)
		if rng.Intn(3) == 0 {
			// Zero out a few links: classes crossing them get rate 0 and
			// stall, exercising the jump-to-arrival and stall-break paths.
			links := g.Links()
			for k := 0; k < 1+rng.Intn(3); k++ {
				links[rng.Intn(len(links))].Capacity = 0
			}
		}
		cfg := Config{
			Graph:  g,
			Policy: []Policy{SP, ECMP, INRP}[rng.Intn(3)],
		}
		if rng.Intn(2) == 0 {
			cfg.DemandCap = units.BitRate(20+rng.Intn(100)) * units.Mbps
		}
		if rng.Intn(2) == 0 {
			cfg.Horizon = time.Duration(1+rng.Intn(2000)) * time.Millisecond
		}
		flows := workload.Generate(workload.Spec{
			Arrivals: workload.NewPoisson(float64(5+rng.Intn(40)), rng.Int63()),
			Sizes:    workload.NewBoundedPareto(1.5, units.MB, 100*units.MB, rng.Int63()),
			Matrix:   workload.NewGravity(g, rng.Int63()),
			Count:    5 + rng.Intn(60),
		})
		cfg.Flows = flows
		heap, scan := runPairSkipUnrouted(t, trial, cfg)
		if heap == nil {
			continue
		}
		checkRunEqual(t, trial, heap, scan)
	}
}

// runPairSkipUnrouted is runPair, except trials whose workload hits a
// disconnected src/dst pair are skipped (both loops must agree that the
// run errors).
func runPairSkipUnrouted(t *testing.T, trial int, cfg Config) (heap, scan *Result) {
	t.Helper()
	if cfg.PoolingRounds <= 0 {
		cfg.PoolingRounds = 4
	}
	if cfg.Planner == (core.PlannerConfig{}) {
		cfg.Planner = core.DefaultPlannerConfig()
	}
	mk := func() *runner {
		r := &runner{cfg: cfg, g: cfg.Graph}
		r.init()
		return r
	}
	heap, errHeap := mk().run()
	scan, errScan := mk().runRef(t)
	if (errHeap == nil) != (errScan == nil) {
		t.Fatalf("trial %d: heap err %v, scan err %v", trial, errHeap, errScan)
	}
	if errHeap != nil {
		return nil, nil
	}
	return heap, scan
}
