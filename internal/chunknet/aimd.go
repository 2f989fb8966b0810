package chunknet

// This file implements the TCP-Reno-flavoured AIMD baseline: a sender-
// driven sliding window with slow start, additive increase, fast
// retransmit on triple duplicate acks and a coarse retransmission
// timeout, over the same links — whose stores act as plain drop-tail
// buffers in this mode. It is the "closed feedback loop … resource
// probing" design the paper argues against (§2.1), used as the
// comparison point in the custody/back-pressure experiment.

// aimd is the AIMD transport.
type aimd struct{ e2e }

// aimdFlow is one AIMD transfer's endpoint state: the sender's window
// and ack bookkeeping.
type aimdFlow struct {
	e2eFlow
	next    int64 // next new chunk to send
	lastCum int64 // highest cumulative ack seen
}

func (aimd) newFlow(s *Sim, base flowState) *flowState {
	f := &aimdFlow{e2eFlow: newE2EFlow(base), lastCum: -1}
	f.ep = f
	f.timeoutFn = func() { f.timeout(s) }
	return &f.flowState
}

// start opens the flow: slow-start from a small window.
func (f *aimdFlow) start(s *Sim) {
	f.trySend(s)
	f.rearm(s, s.cfg.RTO)
}

// trySend pushes data while the window allows.
func (f *aimdFlow) trySend(s *Sim) {
	for f.next < f.tr.Chunks && float64(f.next-f.lastCum) <= f.cwnd {
		f.sendChunk(s, f.next)
		f.next++
	}
}

// atReceiver acks every fresh chunk cumulatively.
func (f *aimdFlow) atReceiver(s *Sim, _ int64) {
	s.sendToSource(&f.flowState, pktAck, f.win.Next()-1, false)
}

// atSource is the sender's ack handler: window growth on progress, fast
// retransmit on triple duplicates.
func (f *aimdFlow) atSource(s *Sim, p *packet) {
	if f.done && f.win.Done() {
		return
	}
	if p.seq > f.lastCum {
		f.lastCum = p.seq
		f.dup = 0
		f.grow()
		f.rearm(s, s.cfg.RTO)
		f.trySend(s)
		return
	}
	f.dup++
	if f.dup >= 3 {
		f.dup = 0
		f.halve()
		f.retransmit(s)
	}
}

// retransmit resends the first unacknowledged chunk.
func (f *aimdFlow) retransmit(s *Sim) {
	seq := f.lastCum + 1
	if seq >= f.tr.Chunks || f.win.Received(seq) {
		return
	}
	s.rep.Retransmits++
	s.mRetransmits.Inc()
	f.sendChunk(s, seq)
	f.rearm(s, s.cfg.RTO)
}

// timeout is the coarse timeout: collapse to one segment and go back to
// the first unacked chunk.
func (f *aimdFlow) timeout(s *Sim) {
	if f.done {
		return
	}
	s.mRTOFires.Inc()
	s.emitTrace("rto_fire", f.tr.ID, "", f.lastCum+1, 0)
	f.collapse()
	f.next = f.lastCum + 1
	f.retransmit(s)
}
