package chunknet

import (
	"fmt"
	"time"

	"repro/internal/des"
)

// Transport selects the protocol stack of a run.
type Transport int

// The three transports.
const (
	INRPP Transport = iota
	AIMD
	ARC
)

// String names the transport.
func (t Transport) String() string {
	switch t {
	case INRPP:
		return "INRPP"
	case AIMD:
		return "AIMD"
	case ARC:
		return "ARC"
	default:
		return fmt.Sprintf("Transport(%d)", int(t))
	}
}

// transport is the seam between the shared forwarding layer (forward.go)
// and one protocol stack: INRPP in inrpp.go, AIMD in aimd.go, ARC in
// reqctl.go. New picks it once; nothing else asks which one runs.
type transport interface {
	// newFlow embeds base in the transport's flow type, binds its
	// endpoint, and returns the shared part.
	newFlow(s *Sim, base flowState) *flowState
	arm(s *Sim, until time.Duration)       // router-side periodic work
	stored(s *Sim, a *arcState, p *packet) // a store accepted a data chunk
	pull(s *Sim, a *arcState) *packet      // an idle arc asks for a fresh chunk
}

// endpoint is one flow's source and receiver.
type endpoint interface {
	start(s *Sim)
	atSource(s *Sim, p *packet)   // a request or ack reached the source
	atReceiver(s *Sim, seq int64) // fresh chunk seq was counted at the receiver
}

// e2e is the router side of the baselines, AIMD and ARC: none.
type e2e struct{}

func (e2e) arm(*Sim, time.Duration)         {}
func (e2e) stored(*Sim, *arcState, *packet) {}
func (e2e) pull(*Sim, *arcState) *packet    { return nil }

// e2eFlow is the endpoint state both baselines share: the congestion
// window, the duplicate count behind fast recovery, and the loss timer,
// whose callback is bound once so re-arming it allocates nothing.
type e2eFlow struct {
	flowState
	congWindow
	dup       int
	rto       des.Timer
	timeoutFn func()
}

// newE2EFlow opens a flow in slow start.
func newE2EFlow(base flowState) e2eFlow {
	return e2eFlow{flowState: base, congWindow: congWindow{cwnd: 2, ssthresh: 64}}
}

// rearm (re)arms the loss timer to fire after d.
func (f *e2eFlow) rearm(s *Sim, d time.Duration) {
	f.rto.Cancel()
	f.rto = s.des.After(d, f.timeoutFn)
}

// sendChunk pushes chunk seq end-to-end along the flow's single path,
// with no detour budget: the baselines never pool in-network resources.
func (f *e2eFlow) sendChunk(s *Sim, seq int64) {
	p := s.makeDataPacket(&f.flowState, seq)
	if !s.arcFor(f.tr.Src, f.dataPath[1]).send(p) {
		s.freePacket(p)
	}
}

// congWindow is the Reno congestion window of both baselines: AIMD runs
// it over data at the sender, ARC over requests at the receiver.
type congWindow struct{ cwnd, ssthresh float64 }

// grow is slow start below ssthresh, congestion avoidance above it.
func (w *congWindow) grow() {
	if w.cwnd < w.ssthresh {
		w.cwnd++
	} else {
		w.cwnd += 1 / w.cwnd
	}
}

// halve is the multiplicative decrease, floored at two segments.
func (w *congWindow) halve() {
	w.ssthresh = w.cwnd / 2
	if w.ssthresh < 2 {
		w.ssthresh = 2
	}
	w.cwnd = w.ssthresh
}

// collapse is the timeout response: halve, then restart from one segment.
func (w *congWindow) collapse() {
	w.halve()
	w.cwnd = 1
}
