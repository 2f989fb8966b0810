package flowsim

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/topo"
	"repro/internal/units"
	"repro/internal/workload"
)

// TestObsDoesNotChangeResults pins the determinism contract on the fluid
// simulator: the INRP Fig. 3 run (detours + allocator churn) must yield
// an identical Result with metrics and tracing enabled.
func TestObsDoesNotChangeResults(t *testing.T) {
	size := units.ByteSize(2_500_000)
	base := Config{Graph: topo.Fig3(), Policy: INRP, Flows: twoFlowsFig3(size)}
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.New("flowsim-test")
	var traced bytes.Buffer
	cfg := base
	cfg.Graph = topo.Fig3()
	cfg.Obs = reg
	cfg.Trace = obs.NewTrace(&traced, 1)
	cfg.TraceLabel = "fig3-flow"
	instrumented, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, instrumented) {
		t.Fatalf("instrumented result diverged:\nplain:        %+v\ninstrumented: %+v", plain, instrumented)
	}
	if err := cfg.Trace.Flush(); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if got := snap.Counters["flowsim_flows_admitted"]; got != int64(instrumented.Total) {
		t.Errorf("admitted = %d, want %d", got, instrumented.Total)
	}
	if got := snap.Counters["flowsim_flows_finished"]; got != int64(instrumented.Completed) {
		t.Errorf("finished = %d, want %d", got, instrumented.Completed)
	}
	allocs := snap.Counters["flowsim_alloc_fills"]
	if allocs == 0 {
		t.Error("allocator fills never counted")
	}
	// Every INRP allocation fills at least once and at most once per
	// pooling round (the default 4); the fixpoint exit saves the rest.
	if fills := snap.Counters["flowsim_class_fills"]; fills < allocs || fills > 4*allocs {
		t.Errorf("class fills = %d, want between %d and %d", fills, allocs, 4*allocs)
	}
	if got := snap.Gauges["flowsim_flows_active"]; got != 0 {
		t.Errorf("final active gauge = %d, want 0", got)
	}
	if snap.Gauges["flowsim_flow_classes"] == 0 {
		t.Error("flow-class gauge never set")
	}
	if len(snap.Series["flowsim_flows_active_series"]) == 0 {
		t.Error("active-flow sampler empty")
	}
	out := traced.String()
	if strings.Count(out, `"event":"flow_admit"`) != instrumented.Total {
		t.Errorf("trace admit events != %d:\n%s", instrumented.Total, out)
	}
	if strings.Count(out, `"event":"flow_finish"`) != instrumented.Completed {
		t.Errorf("trace finish events != %d:\n%s", instrumented.Completed, out)
	}
	if !strings.Contains(out, `"scenario":"fig3-flow"`) {
		t.Error("trace events missing scenario label")
	}
}

// TestObsBackpressureCounter drives an overload that cannot be fully
// detoured and checks the allocator's back-pressure instrument agrees
// with the Result counter.
func TestObsBackpressureCounter(t *testing.T) {
	g := topo.Line(3)
	var flows []workload.Flow
	for i := 0; i < 8; i++ {
		flows = append(flows, workload.Flow{ID: i, Src: 0, Dst: 2, Size: 125 * units.MB, Arrival: 0})
	}
	reg := obs.New("bp-test")
	res, err := Run(Config{
		Graph:     g,
		Policy:    INRP,
		Flows:     flows,
		Horizon:   2 * time.Second,
		DemandCap: 10 * units.Gbps, // oversubscribe the line
		Obs:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got, want := snap.Counters["flowsim_backpressure_events"], int64(res.Backpressured); got != want {
		t.Errorf("backpressure counter = %d, want %d (Result)", got, want)
	}
}
