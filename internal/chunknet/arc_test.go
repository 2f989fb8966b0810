package chunknet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/topo"
	"repro/internal/units"
)

// fanIn is n sources 0..n-1 feeding router n, whose 5Mbps arc to
// receiver n+1 is the bottleneck; no detour exists around it.
func fanIn(n int) *topo.Graph {
	g := topo.New("fanin")
	g.AddNodes(n + 2)
	router := topo.NodeID(n)
	for src := topo.NodeID(0); src < router; src++ {
		g.MustAddLink(src, router, 100*units.Mbps, time.Millisecond)
	}
	g.MustAddLink(router, router+1, 5*units.Mbps, time.Millisecond)
	return g
}

func fanInConfig(n int) Config {
	return Config{
		Graph:              fanIn(n),
		Transport:          INRPP,
		ChunkSize:          10 * units.KB,
		Anticipation:       64,
		QueueBytes:         50 * units.KB,
		CustodyBytes:       150 * units.KB,
		InitialRequestRate: 20 * units.Mbps,
		Ti:                 5 * time.Millisecond,
	}
}

// TestBackpressureReleaseOrder pins that a store releases back-pressure
// to its upstreams in the order it notified them, not in node order or
// any other: the release packets' completion events are scheduled in
// that order, and equal-time events fire in scheduling order.
func TestBackpressureReleaseOrder(t *testing.T) {
	// Eight upstreams, notified in an order that is neither sorted nor
	// reversed nor a rotation of either.
	order := []topo.NodeID{5, 2, 7, 0, 3, 6, 1, 4}
	cfg := fanInConfig(len(order))
	cfg.QueueBytes, cfg.CustodyBytes = 100*units.KB, 200*units.KB // 30 chunks
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	router := topo.NodeID(len(order))
	a := s.arcFor(router, router+1)
	a.busy = true // hold the serializer: occupancy moves only when we say
	// Twenty chunks stay below the 0.7 high watermark; each of the next
	// eight notifies its upstream.
	ups := append(make([]topo.NodeID, 20), order...)
	for i, up := range ups {
		p := s.newPacket()
		p.kind = pktData
		p.seq = int64(i)
		p.size = cfg.ChunkSize
		p.prevHop = up
		if !a.send(p) {
			t.Fatalf("store rejected chunk %d below capacity", i)
		}
	}
	if !slices.Equal(a.bpNotified, order) {
		t.Fatalf("notified %v, want %v", a.bpNotified, order)
	}
	s.des.Run() // deliver the notifications, leaving the upstream arcs idle

	for a.bpActive {
		a.next()
	}
	// The release packets now serialise on the equal upstream arcs,
	// finishing at the same instant: each step completes one.
	var released []topo.NodeID
	for range order {
		s.des.Step()
		for _, up := range order {
			if u := s.arcFor(router, up); u.txPkt == nil && !slices.Contains(released, up) {
				released = append(released, up)
			}
		}
	}
	if !slices.Equal(released, order) {
		t.Errorf("released %v, want notification order %v", released, order)
	}
	if len(a.bpNotified) != 0 {
		t.Errorf("notified list not cleared on release: %v", a.bpNotified)
	}
}

// TestBackpressureFanInDeterministic runs the fan-in overload, where one
// back-pressure episode notifies several upstreams, and checks that
// repeated runs give the same report and the same trace bytes.
func TestBackpressureFanInDeterministic(t *testing.T) {
	run := func() (*Report, []byte) {
		var trace bytes.Buffer
		cfg := fanInConfig(3)
		cfg.Trace = obs.NewTrace(&trace, 1)
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for src := topo.NodeID(0); src < 3; src++ {
			if err := s.AddTransfer(Transfer{ID: int(src) + 1, Src: src, Dst: 4, Chunks: 300}); err != nil {
				t.Fatal(err)
			}
		}
		rep := s.Run(3 * time.Second)
		if err := cfg.Trace.Flush(); err != nil {
			t.Fatal(err)
		}
		return rep, trace.Bytes()
	}
	rep, trace := run()

	// The scenario must exercise what it is for: some episode on the
	// bottleneck notifies at least two upstreams (one per flow).
	widest, episode := 0, map[int]bool{}
	sc := bufio.NewScanner(bytes.NewReader(trace))
	for sc.Scan() {
		var ev obs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Arc != "3>4" {
			continue
		}
		switch ev.Event {
		case "backpressure_on":
			episode[ev.Flow] = true
			widest = max(widest, len(episode))
		case "backpressure_off":
			clear(episode)
		}
	}
	if widest < 2 {
		t.Fatalf("no back-pressure episode notified two upstreams (widest %d)", widest)
	}

	for i := 0; i < 4; i++ {
		again, againTrace := run()
		if !reflect.DeepEqual(rep, again) {
			t.Fatalf("run %d report diverged:\nfirst: %+v\nagain: %+v", i+2, rep, again)
		}
		if !bytes.Equal(trace, againTrace) {
			t.Fatalf("run %d trace bytes diverged", i+2)
		}
	}
}

// TestPipeStaysBounded drives one arc saturated for a long horizon and
// checks that its propagation pipe compacts: the backing array stays
// within a small multiple of the most packets ever in flight, instead of
// growing by one entry per packet while the pipe never drains.
func TestPipeStaysBounded(t *testing.T) {
	g := topo.New("long-pipe")
	g.AddNodes(2)
	g.MustAddLink(0, 1, 100*units.Mbps, 20*time.Millisecond)
	s, err := New(Config{
		Graph:        g,
		Transport:    INRPP,
		ChunkSize:    10 * units.KB,
		Anticipation: 4096,
		CustodyBytes: 10 * units.MB,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddTransfer(Transfer{ID: 1, Src: 0, Dst: 1, Chunks: 100000}); err != nil {
		t.Fatal(err)
	}
	a := s.arcFor(0, 1)
	// Sample the in-flight count well inside one serialisation time
	// (0.8ms); sampling only reads arc state.
	const horizon = 3 * time.Second
	maxInFlight, maxCap := 0, 0
	var sample func()
	sample = func() {
		maxInFlight = max(maxInFlight, len(a.pipe)-a.pipeHead)
		maxCap = max(maxCap, cap(a.pipe))
		if s.des.Now() < horizon {
			s.des.After(100*time.Microsecond, sample)
		}
	}
	s.des.After(0, sample)
	rep := s.Run(horizon)

	// Between compactions the pipe holds the live packets plus a dead
	// prefix of at most max(live, 64)+1 entries, and append at most
	// doubles the array when it fills: 4·(maxInFlight+64) covers both.
	if bound := 4 * (maxInFlight + 64); maxCap > bound {
		t.Errorf("pipe capacity reached %d, want ≤ 4·(%d+64) = %d", maxCap, maxInFlight, bound)
	}
	// Saturated means far more packets crossed than the bound allows.
	if rep.ChunksDelivered < int64(10*(2*maxInFlight+64)) {
		t.Errorf("only %d chunks delivered (max in flight %d): the arc was not saturated", rep.ChunksDelivered, maxInFlight)
	}
}
