package repro

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/units"
	"repro/internal/workload"
)

// TestFacade exercises the public API end to end: topology, detour
// analysis and flow simulation through the root package only.
func TestFacade(t *testing.T) {
	g, err := BuildISP("VSNL (IN)")
	if err != nil {
		t.Fatal(err)
	}
	prof := AnalyzeDetours(g)
	if prof.Total != g.NumLinks() {
		t.Errorf("profile total %d != links %d", prof.Total, g.NumLinks())
	}

	fig3 := Fig3Topology()
	flows := workload.Generate(workload.Spec{
		Arrivals: workload.NewPoisson(100, 1),
		Sizes:    workload.Constant(MB),
		Matrix:   workload.NewUniform(fig3, 2),
		Count:    10,
	})
	res, err := RunFlows(FlowConfig{Graph: fig3, Policy: INRP, Flows: flows, Horizon: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered == 0 {
		t.Error("facade flow run moved no bytes")
	}
}

// TestSweepFacade drives a small grid sweep through the public API only:
// grid expansion, worker-pool execution, aggregation and rendering.
func TestSweepFacade(t *testing.T) {
	grid := NewSweepGrid().Axis("policy", "SP", "INRP")
	scenarios := grid.Expand(1, 2, func(pt SweepPoint, replica int, _ int64) SweepRunFunc {
		spec := FlowSweepSpec{
			ISP:       "VSNL (IN)",
			Capacity:  100 * Mbps,
			Flows:     20,
			MeanSize:  20 * MB,
			DemandCap: 50 * Mbps,
			Horizon:   4 * time.Second,
		}
		spec.Policy = MustParseFlowPolicy(pt.Get("policy"))
		// One seed per replica: both policies see identical flows.
		return spec.Run(int64(replica + 1))
	})
	if len(scenarios) != 4 {
		t.Fatalf("scenarios = %d, want 4", len(scenarios))
	}
	results := RunSweep(context.Background(), 2, scenarios)
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	aggs := AggregateSweep(results)
	if len(aggs) != 2 {
		t.Fatalf("aggregates = %d, want 2", len(aggs))
	}
	for _, a := range aggs {
		if a.Replicas != 2 {
			t.Errorf("point %s: replicas = %d, want 2", a.Point, a.Replicas)
		}
		if a.Mean("demand_satisfied") <= 0 {
			t.Errorf("point %s: no throughput measured", a.Point)
		}
	}
	if out := SweepTable("t", aggs).String(); !strings.Contains(out, "demand_satisfied") {
		t.Errorf("sweep table missing metrics:\n%s", out)
	}
}

// TestChunkSweepFacade drives a chunknet transport grid through the
// public API only.
func TestChunkSweepFacade(t *testing.T) {
	grid := NewSweepGrid().Axis("transport", "inrpp", "aimd", "arc")
	scenarios := grid.Expand(1, 1, func(pt SweepPoint, replica int, seed int64) SweepRunFunc {
		spec := ChunkSweepSpec{
			Transport:    MustParseChunkTransport(pt.Get("transport")),
			IngressRate:  100 * Mbps,
			EgressRate:   20 * Mbps,
			ChunkSize:    50 * units.KB,
			Anticipation: 64,
			Custody:      10 * MB,
			Buffer:       500 * units.KB,
			Chunks:       100,
			Horizon:      2 * time.Second,
		}
		return spec.Run(seed)
	})
	for _, r := range RunSweep(context.Background(), 2, scenarios) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.Metrics.Values["delivered"] <= 0 {
			t.Errorf("%s delivered nothing", r.Name)
		}
	}
}

// TestExperimentEntryPoints checks the re-exported experiment function.
func TestExperimentEntryPoints(t *testing.T) {
	r, err := Fig3Fairness()
	if err != nil {
		t.Fatal(err)
	}
	if r.INRPJain != 1 {
		t.Errorf("Fig3 INRP Jain = %v, want 1", r.INRPJain)
	}
}
