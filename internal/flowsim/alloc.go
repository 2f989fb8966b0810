package flowsim

import (
	"math"
	"sort"

	"repro/internal/topo"
)

// optimisticOverflow is the practically-infinite overflow request used by
// non-final pooling rounds; the planner caps grants by donor residuals.
const optimisticOverflow = 1e15 // 1 Pbps

// allocateClasses computes the current per-class rates (bits/s) and
// fills classHopsExp with each class's expected hop count (primary hops
// plus the rate-weighted detour extension), according to the configured
// policy. The returned slice is runner-owned scratch (classRate), valid
// until the next call; the whole path is allocation-free in steady
// state. The event loop consumes class rates directly — per-flow
// expansion exists only for the retained reference loop and tests.
func (r *runner) allocateClasses() []float64 {
	r.mAllocFills.Inc()
	if r.cfg.Policy != INRP {
		r.detourRate = 0
		classRate := r.classFill(r.capBase)
		for _, c := range r.liveClasses {
			r.classHopsExp[c] = r.classes[c].hops
		}
		return classRate
	}
	return r.allocateINRP()
}

// allocate expands the class-level allocation into per-flow rate and
// expected-hop slices, indexed in admission (activeOrder) order. Both
// returned slices are runner-owned scratch, valid until the next call.
func (r *runner) allocate() (rates []float64, hopsExp []float64) {
	classRate := r.allocateClasses()
	n := len(r.activeOrder)
	rates = growFloats(&r.ratesBuf, n)
	hopsExp = growFloats(&r.hopsBuf, n)
	for i, s := range r.activeOrder {
		c := r.slotClass[s]
		rates[i] = classRate[c]
		hopsExp[i] = r.classHopsExp[c]
	}
	return rates, hopsExp
}

// grantRec records one detour grant of the current plan: the congested
// source arc it relieves, its rate, the extra hops of its sub-path, and
// the donor arcs it lands on. The arcs slice references the planner's
// per-link candidate cache (stable for the planner's lifetime), so
// recording a grant allocates nothing. The feasibility pass uses these
// records to shrink over-grants when an arc is overloaded by landed
// detour traffic alone.
type grantRec struct {
	src   int // arc index the grant relieves
	rate  float64
	extra float64
	arcs  []topo.Arc // donor arcs the grant lands on
}

// congested is one saturated/overloaded arc candidate of a pooling round.
type congested struct {
	arc  int
	over float64
}

// congestedList orders candidates worst-overflow-first with the arc index
// as a deterministic tiebreak; the order is total, so any sorting
// algorithm yields the same permutation.
type congestedList []congested

func (l congestedList) Len() int { return len(l) }
func (l congestedList) Less(i, j int) bool {
	if l[i].over != l[j].over {
		return l[i].over > l[j].over
	}
	return l[i].arc < l[j].arc
}
func (l congestedList) Swap(i, j int) { l[i], l[j] = l[j], l[i] }

// allocateINRP runs the pooling fixpoint of §3: fill max-min on primary
// paths, shift each saturated arc's overflow onto detour sub-paths with
// spare capacity (capacity-aware, via the core planner), fold the pooled
// capacity back into the filling, and iterate. Overflow that no detour
// can absorb is back-pressured: the affected flows are rate-capped in a
// final feasibility pass.
//
// Two shortcuts skip work whose result is already known, and both leave
// every output bit unchanged (the per-flow reference allocateINRPRef in
// equivalence_test.go runs every round over every arc and is the oracle):
//
//   - Per-arc sweeps walk scanArcs — the weighted arcs plus the
//     zero-capacity ones, ascending — instead of all nArcs arcs. Every
//     other arc carries no primary load and no grant, so it can be no
//     candidate, its effective capacity is never read, and its grant is
//     an exact +0 that leaves the detourRate sum unchanged.
//   - Fixpoint exit: a non-final round whose new grants are bit-equal to
//     the grants it entered with would be repeated exactly by every later
//     non-final round (same capEff, same fill, same loads, same plan), and
//     the final round would fill against the same capEff. So the loop
//     jumps to the final round, which keeps the round's classRate and
//     primaryLoad and only re-plans with its overflow-only candidates.
func (r *runner) allocateINRP() []float64 {
	zero(r.grantsFor)
	zero(r.detourLoad)
	zero(r.extraWeighted)
	r.grantRecs = r.grantRecs[:0]
	for w := range r.arcBits {
		r.arcBits[w] = r.weighted[w] | r.zeroCap[w]
	}
	scan := appendArcs(r.scanArcs[:0], r.arcBits)
	r.scanArcs = scan

	capEff := r.capEff
	primaryLoad := r.primaryLoad
	var classRate []float64
	fixpoint := false

	for round := 0; round < r.cfg.PoolingRounds; round++ {
		final := round == r.cfg.PoolingRounds-1

		if !fixpoint {
			// Effective capacity for primary filling: the arc's own rate
			// plus whatever overflow it may ship over detours. Donor arcs
			// keep their full rate for primary traffic — pooling uses spare
			// capacity only (§3.3: forward toward the detour "exactly as
			// much traffic as this detour path can accommodate").
			for _, a := range scan {
				capEff[a] = r.capBase[a] + r.grantsFor[a]
			}
			classRate = r.classFill(capEff)

			// Per-arc primary load. Accumulated flow-by-flow in admission
			// order — not class×weight products — so the float summation
			// order matches the per-flow reference bit for bit.
			zero(primaryLoad)
			for _, s := range r.activeOrder {
				c := r.slotClass[s]
				cr := classRate[c]
				for _, a := range r.classes[c].arcs {
					primaryLoad[a] += cr
				}
			}
		}

		// Re-plan every saturated arc's detours from scratch against the
		// new loads. Actually-overloaded arcs are served first; merely
		// saturated arcs get optimistic grants (in non-final rounds) so
		// their frozen flows can grow into pooled capacity next round. The
		// final round plans only real overflow, keeping the metrics honest.
		cands := r.cands[:0]
		for _, a := range scan {
			over := primaryLoad[a] - r.capBase[a]
			saturated := r.capBase[a]-primaryLoad[a] <= saturationEps(r.capBase[a])
			if over > saturationEps(r.capBase[a]) || (!final && saturated) {
				cands = append(cands, congested{arc: int(a), over: over})
			}
		}
		r.cands = cands
		sort.Sort(&r.cands)

		// The grants this round entered with move to grantsPrev for the
		// fixpoint test below.
		r.grantsFor, r.grantsPrev = r.grantsPrev, r.grantsFor
		zero(r.grantsFor)
		zero(r.detourLoad)
		zero(r.extraWeighted)
		r.grantRecs = r.grantRecs[:0]
		for _, c := range r.cands {
			req := primaryLoad[c.arc] + r.detourLoad[c.arc] - r.capBase[c.arc]
			if !final {
				// Optimistic: take whatever the detours can spare; the
				// planner caps the request by donor residuals.
				req = optimisticOverflow
			}
			if req <= 0 {
				continue
			}
			a := c.arc
			grants, _ := r.planner.Plan(r.arcBack[a], bitRate(req), r.residualFn)
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
		if !final && sameBits(r.grantsFor, r.grantsPrev, scan) {
			fixpoint = true
			round = r.cfg.PoolingRounds - 2 // the next round is the final one
		}
	}

	// Final feasibility (back-pressure) pass: any arc whose direct traffic
	// plus landed detour traffic still exceeds capacity caps the flows
	// crossing it. Grants are consistent with the final loads by
	// construction, so violations only stem from unplaced overflow.
	r.enforceFeasibility(classRate, primaryLoad)

	// Stretch expectation and aggregate detour rate from the final plan.
	// Ascending like a full scan: the skipped grants are exact +0, and a
	// sum that starts at +0 never becomes −0, so adding them is a no-op.
	r.detourRate = 0
	for _, a := range scan {
		r.detourRate += r.grantsFor[a]
	}
	for _, c := range r.liveClasses {
		cl := &r.classes[c]
		extra := 0.0
		for _, a := range cl.arcs {
			if r.grantsFor[a] <= 0 || primaryLoad[a] <= 0 {
				continue
			}
			phi := r.grantsFor[a] / primaryLoad[a]
			if phi > 1 {
				phi = 1
			}
			extra += phi * (r.extraWeighted[a] / r.grantsFor[a])
		}
		r.classExtra[c] = extra
		r.classHopsExp[c] = cl.hops + extra
	}
	return classRate
}

// sameBits reports whether x and y hold bit-identical values on the
// listed indexes.
func sameBits(x, y []float64, idx []int32) bool {
	for _, i := range idx {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// enforceFeasibility rate-caps classes on arcs whose overflow could not
// be fully detoured — the fluid expression of the back-pressure phase.
// Decisions (worst arc, cut factor, per-class cuts) iterate classes; only
// the primary-load bookkeeping walks flows, in active order, to keep the
// float summation sequence identical to the per-flow reference.
//
// The worst-arc scan walks the allocation's scan arcs plus the donor
// arcs of the final plan, in ascending order: any other arc has no
// primary load, no grant and no landed detour, so its excess is −capBase,
// which cannot pass the threshold (zero- and negative-capacity arcs are
// scan arcs). Ascending order keeps the first-wins tie on worstExcess.
// The set cannot grow across passes: cuts and shrinks only lower loads
// on arcs already in it.
//
// Shrinking a grant raises the direct load of its source arc, so the
// passes can keep moving overload between arcs; blind planning, which
// over-grants by orders of magnitude, runs out of passes that way. When
// the passes end with an arc still overloaded, every detour grant is
// withdrawn and primary traffic alone is capped: without grants a cut
// only lowers loads, so each pass fixes one arc for good.
func (r *runner) enforceFeasibility(classRate, primaryLoad []float64) {
	feas := r.arcBits
	for w := range feas {
		feas[w] = r.weighted[w] | r.zeroCap[w]
	}
	for _, g := range r.grantRecs {
		for _, b := range g.arcs {
			a := arcIndex(b)
			feas[a>>6] |= 1 << (a & 63)
		}
	}
	arcs := appendArcs(r.feasArcs[:0], feas)
	r.feasArcs = arcs
	if r.cutOverloads(arcs, classRate, primaryLoad) {
		return
	}
	r.withdrawGrants()
	r.cutOverloads(arcs, classRate, primaryLoad)
}

// cutOverloads runs up to nArcs back-pressure passes over the listed
// arcs, each relieving the worst overloaded arc by class cuts or, when
// its excess is all landed detour traffic, by shrinking the grants
// landing on it. It reports whether every arc ended within capacity.
func (r *runner) cutOverloads(arcs []int32, classRate, primaryLoad []float64) bool {
	for pass := 0; pass < r.nArcs; pass++ {
		worst, worstExcess := -1, 0.0
		for _, a := range arcs {
			direct := primaryLoad[a] - r.grantsFor[a]
			excess := direct + r.detourLoad[a] - r.capBase[a]
			if excess > saturationEps(r.capBase[a])+1e-9 && excess > worstExcess {
				worst, worstExcess = int(a), excess
			}
		}
		if worst < 0 {
			return true
		}
		if primaryLoad[worst] <= 0 {
			// Excess comes entirely from landed detours: donors were
			// over-granted. Shrink the grants landing on this arc
			// proportionally and re-evaluate.
			r.res.Backpressured++
			r.mBackpressure.Inc()
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
		for _, c := range r.liveClasses {
			cl := &r.classes[c]
			r.classCut[c] = 0
			if classRate[c] == 0 {
				continue
			}
			if !pathHasArc(cl.arcs, int32(worst)) {
				continue
			}
			sending = true
			cut := classRate[c] * (1 - factor)
			classRate[c] -= cut
			r.classCut[c] = cut
		}
		if !sending {
			// No flow crossing the arc sends any more, so its primary
			// load is rounding residue of earlier cuts, which no cut can
			// remove; its true load is exactly 0. Only blind planning
			// meets this: its petabit grants let flows fill to ~1e15
			// bits/s, and cutting them back leaves ulps of 1e15 behind.
			primaryLoad[worst] = 0
			continue
		}
		r.res.Backpressured++
		r.mBackpressure.Inc()
		for _, s := range r.activeOrder {
			c := r.slotClass[s]
			cut := r.classCut[c]
			if cut == 0 {
				continue
			}
			for _, a := range r.classes[c].arcs {
				primaryLoad[a] -= cut
			}
		}
	}
	return false
}

// withdrawGrants cancels every detour grant of the current plan.
func (r *runner) withdrawGrants() {
	zero(r.grantsFor)
	zero(r.detourLoad)
	zero(r.extraWeighted)
	r.grantRecs = r.grantRecs[:0]
}

// shrinkGrants scales down the detour grants landing on an arc that is
// overloaded by detour traffic alone, restoring the promised proportional
// shrink: each landing grant loses the same fraction, and its source
// arc's pooled capacity (and stretch weight) shrinks with it — which the
// next feasibility pass then sees as primary overload on the source, if
// any. It reports whether any grant was shrunk.
func (r *runner) shrinkGrants(worst int, excess float64) bool {
	landed := r.detourLoad[worst]
	if landed <= 0 {
		return false
	}
	factor := 1 - excess/landed
	if factor < 0 {
		factor = 0
	}
	shrunk := false
	for gi := range r.grantRecs {
		g := &r.grantRecs[gi]
		if g.rate <= 0 {
			continue
		}
		lands := false
		for _, b := range g.arcs {
			if int(arcIndex(b)) == worst {
				lands = true
				break
			}
		}
		if !lands {
			continue
		}
		cut := g.rate * (1 - factor)
		if cut <= 0 {
			continue
		}
		g.rate -= cut
		r.grantsFor[g.src] -= cut
		r.extraWeighted[g.src] -= cut * g.extra
		for _, b := range g.arcs {
			r.detourLoad[arcIndex(b)] -= cut
		}
		shrunk = true
	}
	return shrunk
}

// pathHasArc reports whether the arc list contains the arc index.
func pathHasArc(arcs []int32, a int32) bool {
	for _, b := range arcs {
		if b == a {
			return true
		}
	}
	return false
}

// growFloats resizes a reusable float scratch buffer to n entries,
// reallocating only on growth. Contents are unspecified; callers
// overwrite every entry.
func growFloats(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n, n+n/2+16)
	}
	*buf = (*buf)[:n]
	return *buf
}

func zero(xs []float64) {
	for i := range xs {
		xs[i] = 0
	}
}
