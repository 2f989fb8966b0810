package chunknet

import (
	"repro/internal/core"
	"repro/internal/route"
	"repro/internal/topo"
)

// This file is the forwarding layer every transport shares.

// flowState is the transport-independent part of one transfer, embedded
// in each transport's flow type; ep points back at that type.
type flowState struct {
	tr       Transfer
	dataPath route.Path // src → dst
	reqPath  route.Path // dst → src
	win      *core.Window
	done     bool
	ep       endpoint
}

// arrive dispatches a packet that reached the far end of arc a. Packets
// that terminate here (delivered data, consumed requests/acks, control
// notifications) return to the pool once their handler is done.
func (s *Sim) arrive(p *packet, a *arcState) {
	node := a.to
	if len(p.rest) > 0 && p.rest[0] == node {
		p.rest = p.rest[1:]
	}
	switch p.kind {
	case pktData:
		if len(p.rest) == 0 {
			s.deliver(p)
			s.freePacket(p)
			return
		}
		s.forwardData(p, node)
	case pktRequest, pktAck:
		if len(p.rest) == 0 {
			s.flows[p.flow].ep.atSource(s, p)
			s.freePacket(p)
			return
		}
		s.forwardRequest(p, node)
	case pktBpOn:
		s.onBackpressureOn(p, node)
		s.freePacket(p)
	case pktBpOff:
		s.onBackpressureOff(p, node)
		s.freePacket(p)
	}
}

// forwardData routes a data chunk one hop further. A chunk with detour
// budget (only INRPP grants one) takes the detour phase when the nominal
// outgoing interface is congested (§3.3) or — under a reroute failover
// mode — hard-down.
func (s *Sim) forwardData(p *packet, node topo.NodeID) {
	a := s.arcFor(node, p.rest[0])
	if p.detourBudget > 0 {
		failover := s.failoverDetour(a)
		if failover || s.shouldDetour(a) {
			if via, ok := s.pickDetour(a, p); ok {
				p.detourBudget--
				if !p.detoured {
					p.detoured = true
					s.rep.ChunksDetoured++
				}
				if failover {
					s.rep.DetourFailovers++
					s.mDetourFailovers.Inc()
				}
				s.tunnel(p, via)
				a = s.arcFor(node, via)
				s.mDetoured.Inc()
				a.cDetourBytes.Add(int64(p.size))
				s.emitTrace("detour", p.flow, a.name, p.seq, 0)
			}
		}
	}
	// send() reads prevHop as the upstream to back-pressure, so update it
	// only afterwards (same call stack: the stored packet carries the new
	// value downstream). A dropped packet belongs to us again: recycle.
	if !a.send(p) {
		s.freePacket(p)
		return
	}
	p.prevHop = node
}

// forwardRequest records a request (or ack) at this router's estimator
// (eq. 1) — only INRPP's estimator tick ever reads the counts — and
// forwards it toward the content source.
func (s *Sim) forwardRequest(p *packet, node topo.NodeID) {
	ns := s.nodes[node]
	next := p.rest[0]
	if ns.est != nil {
		via := ns.ifaceTo[next]
		if dataIface := ns.ifaceTo[p.prevHop]; dataIface >= 0 {
			ns.est.RecordRequest(via, dataIface, 1)
		}
	}
	s.routeControl(node, p)
}

// routeControl sends a control packet toward its next hop (p.rest[0]),
// rerouting it around a hard-down arc under a reroute failover mode: the
// packet is spliced through an un-paused one-hop detour exactly like
// failover data. Requests and NACKs keep flowing while their nominal arc
// is paused — without this the receiver's request stream (and with it
// the request-driven sender) would stall behind the very outage the
// failover is meant to route around.
func (s *Sim) routeControl(node topo.NodeID, p *packet) {
	a := s.arcFor(node, p.rest[0])
	if s.failoverDetour(a) {
		if via, ok := s.pickControlReroute(a, p.seq); ok {
			s.tunnel(p, via)
			a = s.arcFor(node, via)
		}
	}
	a.send(p)
	p.prevHop = node
}

// deliver hands a data chunk to its receiver.
func (s *Sim) deliver(p *packet) {
	f := s.flows[p.flow]
	if !f.win.OnData(p.seq) {
		return // duplicate
	}
	s.rep.ChunksDelivered++
	s.mDelivered.Inc()
	f.ep.atReceiver(s, p.seq)
	if f.win.Done() && !f.done {
		now := s.des.Now()
		f.done = true
		s.rep.Completions[f.tr.ID] = now - f.tr.Start
		s.mCompleted.Inc()
		s.emitTrace("transfer_done", f.tr.ID, "", 0, (now - f.tr.Start).Seconds())
	}
}

// sendToSource sends a request or ack for chunk seq from the flow's
// receiver along the reverse path; resend marks a re-request of a chunk
// presumed lost.
func (s *Sim) sendToSource(f *flowState, kind packetKind, seq int64, resend bool) {
	p := s.newPacket()
	p.kind = kind
	p.seq = seq
	p.resend = resend
	p.flow = f.tr.ID
	p.size = s.cfg.RequestSize
	p.rest = append(p.rest, f.reqPath[1:]...)
	p.prevHop = f.tr.Dst
	s.routeControl(f.tr.Dst, p)
}

// sendControl sends a one-hop control packet from node from to its
// neighbour to.
func (s *Sim) sendControl(from, to topo.NodeID, p *packet) {
	p.prevHop = from
	p.rest = append(p.rest[:0], to)
	s.arcFor(from, to).send(p)
}

// makeDataPacket builds chunk seq of flow f at its source, with no detour
// budget; a transport that pools detour capacity grants it.
func (s *Sim) makeDataPacket(f *flowState, seq int64) *packet {
	s.rep.ChunksSent++
	s.mSent.Inc()
	p := s.newPacket()
	p.kind = pktData
	p.flow = f.tr.ID
	p.seq = seq
	p.size = s.cfg.ChunkSize
	p.rest = append(p.rest, f.dataPath[1:]...)
	p.prevHop = f.tr.Src
	return p
}
