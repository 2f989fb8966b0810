package chunknet

import (
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/route"
	"repro/internal/topo"
	"repro/internal/units"
)

// inrpp is the paper's transport (§3.2–3.3): paced receiver requests,
// open-loop push at the source, and routers that pool custody, one-hop
// detours and back-pressure. Its router side is the estimator tick (arm),
// the back-pressure trigger (stored) and the push scheduler (pull).
type inrpp struct{}

// inrppFlow is one INRPP transfer's endpoint state.
type inrppFlow struct {
	flowState

	// Receiver: request pacing tracks the data arrival rate (§3.2, "the
	// receiver continuously adjusts its requesting rate to the incoming
	// data rate").
	rateEst  float64 // bits/s EWMA
	lastData time.Duration
	nextReq  int64 // next chunk to request
	lastNack int64
	nackAt   time.Duration // when lastNack was sent (NACK re-arm)
	// loopFn is the request loop, bound once so re-arming it does not
	// allocate a closure per event.
	loopFn func()

	// Sender.
	highestReq int64 // highest chunk covered by requests (incl. Ac)
	nextSend   int64
	resendQ    []int64
	closedLoop bool
	credits    int64 // closed loop: one chunk per arriving request
}

func (inrpp) newFlow(s *Sim, base flowState) *flowState {
	f := &inrppFlow{
		flowState:  base,
		rateEst:    float64(s.cfg.InitialRequestRate),
		lastNack:   -1, // chunk 0 must be NACKable/re-requestable
		highestReq: -1,
	}
	f.ep = f
	f.loopFn = func() { f.requestLoop(s) }
	src := s.nodes[f.tr.Src]
	src.senders = append(src.senders, f)
	return &f.flowState
}

// arm starts the periodic estimator tick on every router.
func (inrpp) arm(s *Sim, until time.Duration) {
	s.everyTi(until, s.tickEstimators)
}

func (f *inrppFlow) start(s *Sim) { f.requestLoop(s) }

// atReceiver tracks the incoming data rate for request pacing.
func (f *inrppFlow) atReceiver(s *Sim, _ int64) {
	now := s.des.Now()
	gap := (now - f.lastData).Seconds()
	if f.lastData > 0 && gap > 0 {
		sample := s.cfg.ChunkSize.Bits() / gap
		f.rateEst = 0.75*f.rateEst + 0.25*sample
	}
	f.lastData = now
}

// nackStall is the INRPP receiver's stall threshold: no data for this
// long (with requests outstanding) makes the receiver re-request the
// first missing chunk, and each further epoch of silence re-arms the
// NACK for the same chunk.
const nackStall = 300 * time.Millisecond

// requestLoop is the INRPP receiver: it paces ⟨Nc, ACKc, Ac⟩ requests at
// the estimated data rate, re-requesting stalled chunks via explicit
// NACK-like asks (§3.2: losses are identified by explicit timers or
// NACKs, not by out-of-order delivery).
func (f *inrppFlow) requestLoop(s *Sim) {
	if f.done {
		return
	}
	now := s.des.Now()
	req := f.win.Request()
	limit := req.Anticipated
	switch {
	case f.nextReq <= limit && f.nextReq < f.tr.Chunks:
		s.sendToSource(&f.flowState, pktRequest, f.nextReq, false)
		f.nextReq++
	case f.win.Next() < f.nextReq && now-f.lastData > nackStall:
		// Stalled: re-request the first missing chunk once per stall
		// epoch. The one-shot `missing != f.lastNack` guard alone
		// deadlocked: if the re-request or the resent chunk was itself
		// lost, missing never changed and no second NACK could ever
		// fire. Re-arm once a full stall interval passes with no
		// progress since the last NACK.
		if missing := f.win.Next(); missing != f.lastNack || now-f.nackAt > nackStall {
			f.lastNack = missing
			f.nackAt = now
			s.sendToSource(&f.flowState, pktRequest, missing, true)
		}
	}
	interval := time.Duration(s.cfg.ChunkSize.Bits() / f.rateEst * float64(time.Second))
	if interval < 10*time.Microsecond {
		interval = 10 * time.Microsecond
	}
	if interval > 100*time.Millisecond {
		interval = 100 * time.Millisecond
	}
	s.des.After(interval, f.loopFn)
}

// atSource is the INRPP sender's request handler: extend the pushed
// horizon by the anticipation window, grant a closed-loop credit, queue
// explicit resends, and kick the outgoing serializer.
func (f *inrppFlow) atSource(s *Sim, p *packet) {
	horizon := p.seq + s.cfg.Anticipation
	if horizon > f.tr.Chunks-1 {
		horizon = f.tr.Chunks - 1
	}
	if horizon > f.highestReq {
		f.highestReq = horizon
	}
	if p.resend && p.seq < f.nextSend {
		f.resendQ = append(f.resendQ, p.seq)
	}
	if f.closedLoop {
		f.credits++
	}
	// Poke the sender's outgoing arc so the push scheduler runs.
	s.arcFor(f.tr.Src, f.dataPath[1]).kick()
}

// pull is the open-loop push scheduler: when a sender-adjacent arc goes
// idle it pulls the next chunk, round-robin across the flows rooted at
// that node — processor sharing at chunk granularity (§3.2).
func (inrpp) pull(s *Sim, a *arcState) *packet {
	node := s.nodes[a.from]
	n := len(node.senders)
	for i := 0; i < n; i++ {
		f := node.senders[(node.schedRR+i)%n]
		if f.dataPath[1] != a.to {
			continue // this flow leaves through a different interface
		}
		seq, ok := f.nextSeq(s)
		if !ok {
			continue
		}
		node.schedRR = (node.schedRR + i + 1) % n
		p := s.makeDataPacket(&f.flowState, seq)
		p.detourBudget = 1 // detour nodes take "one extra hop only"
		return p
	}
	return nil
}

// nextSeq yields the next chunk the sender may push: explicit resends
// first, then sequential chunks up to the requested horizon (open loop)
// or per credit (closed loop).
func (f *inrppFlow) nextSeq(s *Sim) (int64, bool) {
	if len(f.resendQ) > 0 {
		seq := f.resendQ[0]
		f.resendQ = f.resendQ[1:]
		s.rep.Retransmits++
		s.mRetransmits.Inc()
		return seq, true
	}
	if f.nextSend >= f.tr.Chunks || f.nextSend > f.highestReq {
		return 0, false
	}
	if f.closedLoop {
		if f.credits <= 0 {
			return 0, false
		}
		f.credits--
	}
	seq := f.nextSend
	f.nextSend++
	return seq, true
}

// shouldDetour reports whether the arc's interface is in the detour phase
// with actual backlog to shift.
func (s *Sim) shouldDetour(a *arcState) bool {
	return a.iface.Phase() == core.PhaseDetour && (a.busy || a.store.Len() > 0)
}

// pickDetour selects a one-hop detour neighbour around arc a whose two
// detour arcs both have spare measured capacity.
func (s *Sim) pickDetour(a *arcState, p *packet) (topo.NodeID, bool) {
	return s.pickVia(a, p.seq, func(out, back *arcState) bool {
		return out.measuredResidual() > 0 && back.measuredResidual() > 0
	})
}

// pickVia selects a one-hop detour neighbour via around arc a whose arcs
// out (a.from→via) and back (via→a.to) pass viable, spreading consecutive
// chunks across the candidates by seq (the flowlet splitting of §3.3).
// Only one-hop candidates qualify: the extra hop budget is the packet's
// to spend. The candidate list lives in a sim-level scratch slice:
// detours run per forwarded chunk in the congested regime, where a fresh
// slice per call would break forwarding's allocation-free promise.
func (s *Sim) pickVia(a *arcState, seq int64, viable func(out, back *arcState) bool) (topo.NodeID, bool) {
	vias := s.detourScratch[:0]
	for _, sub := range s.planner.Candidates(a.arc.Link, a.arc.Dir) {
		if sub.Extra != 1 {
			continue
		}
		via := sub.Path[1]
		if viable(s.arcFor(a.from, via), s.arcFor(via, a.to)) {
			vias = append(vias, via)
		}
	}
	s.detourScratch = vias
	if len(vias) == 0 {
		return 0, false
	}
	return vias[int(seq)%len(vias)], true
}

// tunnel splices via in front of p's next hop, so p takes the one-hop
// detour and rejoins its route there. The route is rebuilt in place
// through the sim's scratch path, so detouring stays allocation-free
// like plain forwarding.
func (s *Sim) tunnel(p *packet, via topo.NodeID) {
	next := p.rest[0]
	s.pathScratch = append(s.pathScratch[:0], p.rest[1:]...)
	p.rest = append(p.rest[:0], via, next)
	p.rest = append(p.rest, s.pathScratch...)
}

// stored is the back-pressure trigger: when a store crosses its high
// watermark, the congested node explicitly informs the one-hop upstream
// neighbour that delivered the triggering chunk (§3.3).
func (inrpp) stored(s *Sim, a *arcState, p *packet) {
	if a.occupancyFraction() < s.cfg.BackpressureHigh {
		return
	}
	up := p.prevHop
	if up == a.from || slices.Contains(a.bpNotified, up) {
		return
	}
	a.bpActive = true
	a.bpNotified = append(a.bpNotified, up)
	s.rep.BackpressureOn++
	s.mBpOn.Inc()
	s.emitTrace("backpressure_on", p.flow, a.name, p.seq, a.occupancyFraction())
	// Ask the upstream for the store's drain rate: conservative, so the
	// occupancy stops growing immediately. (Adding the rate at which the
	// remaining custody headroom could keep absorbing would be safe only
	// if re-signalled every horizon; a one-shot notification must not
	// over-promise.)
	p2 := s.newPacket()
	p2.kind = pktBpOn
	p2.size = s.cfg.RequestSize
	p2.bpArc = a.arc
	p2.bpRate = a.baseRate
	s.sendControl(a.from, up, p2)
}

// onBackpressureOn handles a slow-down notification at the upstream node:
// senders flip the affected flows into closed-loop mode; transit nodes
// throttle their arc toward the congested node, which (as their own
// stores fill) propagates the pressure naturally one hop at a time.
func (s *Sim) onBackpressureOn(p *packet, node topo.NodeID) {
	ns := s.nodes[node]
	congested := p.bpArc
	for _, f := range ns.senders {
		if !f.closedLoop && s.pathUsesArc(f.dataPath, congested) {
			f.closedLoop = true
			s.rep.ClosedLoopEntries++
		}
	}
	// Throttle the arc feeding the congested node.
	a := s.arcFor(node, p.prevHop)
	if !a.limited {
		a.limited = true
		a.capRate = p.bpRate
		if a.capRate > a.baseRate {
			a.capRate = a.baseRate
		}
	}
}

// onBackpressureOff releases throttles and closed loops set by a previous
// notification from the same neighbour.
func (s *Sim) onBackpressureOff(p *packet, node topo.NodeID) {
	ns := s.nodes[node]
	for _, f := range ns.senders {
		if f.closedLoop && s.pathUsesArc(f.dataPath, p.bpArc) {
			f.closedLoop = false
			s.arcFor(f.tr.Src, f.dataPath[1]).kick()
		}
	}
	a := s.arcFor(node, p.prevHop)
	if a.limited {
		a.limited = false
		a.capRate = a.baseRate
		a.kick()
	}
}

// rateEWMA smooths per-tick rate measurements: a single measurement
// window Ti can hold a fraction of a chunk on slow links, so raw
// per-window rates quantise badly (0 or huge). Smoothing recovers the
// mean the paper's routers would sample.
const rateEWMA = 0.25

// tickEstimators closes the measurement interval on every router:
// anticipated rates from eq. 1, measured arc throughput for neighbour
// state, and the phase update of every interface.
func (s *Sim) tickEstimators() {
	tiSec := s.cfg.Ti.Seconds()
	for _, ns := range s.nodes {
		if ns.est == nil {
			continue
		}
		ns.est.Tick(s.des.Now())
		for iface, idx := range ns.arcIdx {
			a := s.arcs[idx]
			instant := units.BitRate(a.sentBits / tiSec)
			a.lastRate += units.BitRate(rateEWMA) * (instant - a.lastRate)
			a.sentBits = 0
			instantAnt := ns.est.AnticipatedRate(core.IfaceID(iface))
			a.antRate += units.BitRate(rateEWMA) * (instantAnt - a.antRate)
			hasDetour := s.planner.HasDetour(a.arc, s.residualFn)
			a.iface.Update(a.antRate, hasDetour)
		}
	}
}

// pathUsesArc reports whether the path traverses the given directed arc.
func (s *Sim) pathUsesArc(p route.Path, arc topo.Arc) bool {
	idx := int32(2*int(arc.Link) + int(arc.Dir))
	for i := 0; i+1 < len(p); i++ {
		if s.nodes[p[i]].arcTo[p[i+1]] == idx {
			return true
		}
	}
	return false
}
