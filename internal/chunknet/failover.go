package chunknet

// This file implements failover replanning: what INRPP routers do with
// traffic whose nominal next arc is hard-down. The paper's custody
// answer — hold the chunk and wait — is FailoverHold, the PR 9
// behaviour. FailoverReroute instead treats a hard-down arc as
// zero-capacity (measuredResidual reports 0, so the planner and
// pickDetour already refuse it) and actively moves traffic around the
// outage: freshly arriving chunks take a one-hop detour while the arc is
// paused, and the custody backlog trapped behind the failure is
// evacuated through viable detour neighbours at the instant of the hard
// failure. FailoverBoth detours fresh traffic but leaves the backlog in
// custody — reroute for new chunks, hold for old.
//
// Evacuation never trades custody for a drop: a chunk leaves the store
// only if a viable detour exists, the chunk still has detour budget, and
// the detour arc's store has room for it. Viability is capacity-blind —
// an evacuation is a custody transfer, absorbed by the neighbour's store
// rather than its spare wire capacity, so any un-paused one-hop detour
// with store room qualifies even when its serializer is saturated
// (fresh-traffic failover detours keep pickDetour's residual gate). The
// first chunk that cannot move stops the drain (the store is strict
// FIFO), and whatever stays behind simply waits for recovery, exactly as
// under FailoverHold.

import (
	"fmt"
	"strings"

	"repro/internal/topo"
)

// FailoverMode selects the recovery strategy for traffic whose nominal
// next arc is hard-down.
type FailoverMode int

// The three strategies.
const (
	// FailoverHold keeps chunks in custody until the arc recovers — the
	// paper's pure store-and-wait contract (default).
	FailoverHold FailoverMode = iota
	// FailoverReroute detours fresh chunks around a hard-down arc and
	// evacuates its custody backlog through detour neighbours on failure.
	FailoverReroute
	// FailoverBoth detours fresh chunks but holds the existing backlog in
	// custody.
	FailoverBoth
)

// String names the mode in the form ParseFailoverMode accepts.
func (m FailoverMode) String() string {
	switch m {
	case FailoverHold:
		return "hold"
	case FailoverReroute:
		return "reroute"
	case FailoverBoth:
		return "both"
	default:
		return fmt.Sprintf("FailoverMode(%d)", int(m))
	}
}

// ParseFailoverMode maps a strategy name to its FailoverMode,
// case-insensitively. The empty string parses as FailoverHold.
func ParseFailoverMode(s string) (FailoverMode, error) {
	switch strings.ToLower(s) {
	case "", "hold":
		return FailoverHold, nil
	case "reroute":
		return FailoverReroute, nil
	case "both":
		return FailoverBoth, nil
	}
	return 0, fmt.Errorf("chunknet: unknown failover mode %q (known: hold, reroute, both)", s)
}

// failoverDetour reports whether a freshly arriving chunk should attempt
// a detour around arc a because the arc is hard-down and the config asks
// for rerouting. Distinct from the congestion-phase detour test
// (shouldDetour): a paused interface never reaches the detour phase on
// its own, since a dead arc measures no anticipated load.
func (s *Sim) failoverDetour(a *arcState) bool {
	return s.cfg.Failover != FailoverHold && a.paused()
}

// maybeEvacuate drains the custody backlog of an arc that just
// transitioned, if it is hard-down and the config selects FailoverReroute
// (which New allows only for INRPP, the one transport with detours). The
// backlog leaves through one-hop detour neighbours, in store FIFO order.
// Each moved chunk is re-spliced to tunnel through the detour node and
// rejoin its route at the arc's far end, spending one unit of its detour
// budget, and is re-offered to the detour arc only after a room check so
// the move can never become a drop. The drain stops at the first chunk
// that cannot move.
func (s *Sim) maybeEvacuate(a *arcState) {
	if s.cfg.Failover != FailoverReroute || !a.paused() {
		return
	}
	for a.store.Len() > 0 {
		p := a.pktq[a.pktHead]
		if p.detourBudget <= 0 {
			return
		}
		via, ok := s.pickEvacuation(a, p)
		if !ok {
			return
		}
		a.popStored()
		p.detourBudget--
		if !p.detoured {
			p.detoured = true
			s.rep.ChunksDetoured++
		}
		s.rep.DetourFailovers++
		s.rep.ChunksEvacuated++
		s.mDetoured.Inc()
		s.mDetourFailovers.Inc()
		s.mEvacuated.Inc()
		// p.rest still begins with a.to, where the tunnel rejoins.
		s.tunnel(p, via)
		d := s.arcFor(a.from, via)
		d.cDetourBytes.Add(int64(p.size))
		s.emitTrace("evacuate", p.flow, d.name, p.seq, 0)
		d.send(p)
	}
}

// pickControlReroute selects an un-paused one-hop detour for a control
// packet stranded behind a hard-down arc. Control traffic bypasses the
// data store, so the only requirement is that both detour arcs are up.
func (s *Sim) pickControlReroute(a *arcState, seq int64) (topo.NodeID, bool) {
	return s.pickVia(a, seq, func(out, back *arcState) bool {
		return !out.paused() && !back.paused()
	})
}

// pickEvacuation selects the detour neighbour for draining custody off a
// hard-down arc. Unlike pickDetour it ignores measured residual: the
// receiving store, not the wire, absorbs an evacuation, so a candidate
// qualifies whenever both detour arcs are un-paused and the first hop's
// store has room for the chunk.
func (s *Sim) pickEvacuation(a *arcState, p *packet) (topo.NodeID, bool) {
	return s.pickVia(a, p.seq, func(out, back *arcState) bool {
		return !out.paused() && !back.paused() && out.store.Capacity()-out.store.Used() >= p.size
	})
}
