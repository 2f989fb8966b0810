package chunknet

// This file implements the ARC baseline — adaptive request control: the
// receiver drives the transfer by running AIMD over its request window,
// the way CCN/NDN interest-shaping transports probe for capacity. Like
// INRPP the loop is receiver-driven and chunk-granular; like AIMD it is
// end-to-end resource probing over drop-tail queues — no custody, no
// detours, no back-pressure. On the transport axis of a chunknet sweep it
// is the middle point that separates how much of INRPP's gain comes from
// in-network resource pooling versus from receiver-driven pull alone.
//
// The stall timer is adaptive: request→data RTTs (first transmissions
// only, per Karn's algorithm) feed an RFC 6298 SRTT/RTTVAR estimator, and
// the timeout is SRTT + 4·RTTVAR with exponential backoff, floored at
// Config.MinRTO and capped at the fixed Config.RTO. At small drop-tail
// buffers this recovers from a lost request in a few RTTs instead of a
// coarse 200ms stall.

import "time"

// reqctl is the ARC transport.
type reqctl struct{ e2e }

// reqctlFlow is one ARC transfer's endpoint state: the receiver's
// request window and its adaptive stall timer.
type reqctlFlow struct {
	e2eFlow
	nextReq     int64 // next new chunk to request
	outstanding int64 // requests issued but not yet answered by data
	lastNack    int64 // hole last fast re-requested
	// RFC 6298 state over request→data samples: the send time of each
	// outstanding first-transmission request (resends are never sampled —
	// Karn's algorithm), the smoothed RTT estimate pair, and the
	// exponential timeout backoff applied after each stall.
	reqSent  map[int64]time.Duration
	srtt     time.Duration
	rttvar   time.Duration
	rtoScale uint
}

func (reqctl) newFlow(s *Sim, base flowState) *flowState {
	f := &reqctlFlow{
		e2eFlow:  newE2EFlow(base),
		lastNack: -1,
		reqSent:  make(map[int64]time.Duration),
	}
	f.ep = f
	f.timeoutFn = func() { f.timeout(s) }
	return &f.flowState
}

// start primes the request window and arms the stall timer.
func (f *reqctlFlow) start(s *Sim) {
	f.requestMore(s)
	f.rearm(s, f.stallTimeout(s))
}

// requestMore issues requests while the window has room. Each request
// asks for exactly one chunk; the sender answers with that chunk and
// nothing else. First transmissions are timestamped so the matching
// delivery yields a request→data RTT sample for the adaptive stall timer.
func (f *reqctlFlow) requestMore(s *Sim) {
	for f.nextReq < f.tr.Chunks && float64(f.outstanding) < f.cwnd {
		f.reqSent[f.nextReq] = s.des.Now()
		s.sendToSource(&f.flowState, pktRequest, f.nextReq, false)
		f.nextReq++
		f.outstanding++
	}
}

// atSource is the ARC sender: answer the requested chunk directly — a
// strict one-request-one-chunk closed loop, with no anticipation horizon
// and no open-loop push.
func (f *reqctlFlow) atSource(s *Sim, p *packet) {
	if p.resend {
		s.rep.Retransmits++
		s.mRetransmits.Inc()
	}
	f.sendChunk(s, p.seq)
}

// atReceiver runs on every delivery: sample the request→data RTT (first
// transmissions only), decrement the outstanding count, grow the window,
// detect holes — three deliveries past a missing chunk trigger a fast
// re-request, the receiver-side analogue of triple duplicate acks — and
// refill the window.
func (f *reqctlFlow) atReceiver(s *Sim, seq int64) {
	if sent, ok := f.reqSent[seq]; ok {
		delete(f.reqSent, seq)
		f.observeRTT(s.des.Now() - sent)
	}
	if f.outstanding > 0 {
		f.outstanding--
	}
	f.grow()
	if seq > f.win.Next() {
		f.dup++
		// One fast re-request (and one window halving) per hole: with a
		// window of in-flight chunks behind a loss, dup would otherwise
		// re-trigger every three deliveries while the first resend is
		// still an RTT away — NewReno's recovery-point idea, keyed here
		// on the hole itself (the lastNack pattern INRPP's receiver
		// uses).
		if f.dup >= 3 && f.win.Next() != f.lastNack {
			f.dup = 0
			f.lastNack = f.win.Next()
			f.halve()
			// Karn's algorithm: a re-requested chunk's eventual delivery
			// must not produce an RTT sample — it could answer either
			// transmission.
			delete(f.reqSent, f.win.Next())
			// The re-request reuses the lost request's outstanding slot
			// (that request was counted but its data will never arrive),
			// so outstanding must not grow — mirroring TCP pipe
			// accounting.
			s.sendToSource(&f.flowState, pktRequest, f.win.Next(), true)
		}
	} else {
		f.dup = 0
	}
	if f.win.Done() {
		f.rto.Cancel()
		return
	}
	f.rearm(s, f.stallTimeout(s))
	f.requestMore(s)
}

// observeRTT folds one request→data sample into the smoothed estimate
// pair, RFC 6298-style, and releases any timeout backoff — fresh samples
// mean the path is alive again.
func (f *reqctlFlow) observeRTT(rtt time.Duration) {
	if f.srtt == 0 {
		f.srtt = rtt
		f.rttvar = rtt / 2
	} else {
		diff := f.srtt - rtt
		if diff < 0 {
			diff = -diff
		}
		f.rttvar = (3*f.rttvar + diff) / 4
		f.srtt = (7*f.srtt + rtt) / 8
	}
	f.rtoScale = 0
}

// stallTimeout computes the stall timer: SRTT + 4·RTTVAR, doubled per
// consecutive timeout, floored at MinRTO and capped at the fixed RTO —
// the adaptive timer is never slower than the legacy coarse one. Before
// the first sample the fixed RTO stands in.
func (f *reqctlFlow) stallTimeout(s *Sim) time.Duration {
	if f.srtt == 0 {
		return s.cfg.RTO
	}
	rto := f.srtt + 4*f.rttvar
	if rto < s.cfg.MinRTO {
		rto = s.cfg.MinRTO
	}
	for i := uint(0); i < f.rtoScale && rto < s.cfg.RTO; i++ {
		rto *= 2
	}
	if rto > s.cfg.RTO {
		rto = s.cfg.RTO
	}
	return rto
}

// timeout is the stall recovery: collapse the window to one request and
// re-ask for the first missing chunk. When nothing is missing the
// outstanding count merely drifted (a duplicate delivery was discarded),
// so reset it and refill. Each consecutive timeout doubles the adaptive
// timer (up to the fixed RTO cap), so a dead path backs off instead of
// re-requesting at RTT cadence.
func (f *reqctlFlow) timeout(s *Sim) {
	if f.done || f.win.Done() {
		return
	}
	s.mRTOFires.Inc()
	s.emitTrace("rto_fire", f.tr.ID, "", f.win.Next(), 0)
	if f.rtoScale < 16 {
		f.rtoScale++
	}
	f.collapse()
	f.dup = 0
	if f.win.Next() < f.nextReq {
		delete(f.reqSent, f.win.Next()) // Karn: the resend answer is ambiguous
		s.sendToSource(&f.flowState, pktRequest, f.win.Next(), true)
		f.outstanding = 1
	} else {
		f.outstanding = 0
		f.requestMore(s)
	}
	f.rearm(s, f.stallTimeout(s))
}
