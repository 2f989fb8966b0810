package repro

// One benchmark per evaluation artifact of the paper (E1–E5 in DESIGN.md)
// plus ablations over the design choices the paper calls out. Benchmarks
// double as the reproduction harness: each reports the headline metric of
// its table/figure via b.ReportMetric, so `go test -bench . -benchmem`
// regenerates the paper's numbers alongside the performance profile.

import (
	"testing"
	"time"

	"repro/internal/chunknet"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/flowsim"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/units"
	"repro/internal/workload"
)

// BenchmarkTable1DetourAnalysis regenerates Table 1: detour classification
// of every link in all nine synthetic ISP topologies. The reported metric
// is the largest per-class deviation from the paper's row (fraction).
func BenchmarkTable1DetourAnalysis(b *testing.B) {
	var maxErr float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1()
		if err != nil {
			b.Fatal(err)
		}
		maxErr = experiments.MaxAbsError(rows)
	}
	b.ReportMetric(maxErr, "maxAbsErr")
}

// fig4Bench is the reduced Fig. 4 configuration used by the benchmarks
// (one seed, one topology, short horizon) — the full sweep lives in
// cmd/experiments.
func fig4Bench(isp topo.ISP) experiments.Fig4Config {
	return experiments.Fig4Config{
		ISPs:            []topo.ISP{isp},
		TargetActive:    120,
		DemandCap:       300 * units.Mbps,
		UniformCapacity: 450 * units.Mbps,
		Horizon:         8 * time.Second,
		Seeds:           1,
	}
}

// BenchmarkFig4aThroughput regenerates Figure 4a (network throughput of
// SP vs ECMP vs INRP) on the Exodus topology; the reported metric is the
// INRP/SP gain (the paper claims 9–15% at full scale).
func BenchmarkFig4aThroughput(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4(fig4Bench(topo.Exodus))
		if err != nil {
			b.Fatal(err)
		}
		gain = res[0].GainOverSP
	}
	b.ReportMetric(100*gain, "gain%")
}

// BenchmarkFig4bPathStretch regenerates Figure 4b (INRP path-stretch CDF)
// on the Exodus topology; the reported metrics are the CDF at stretch 1.0
// (paper: ≥ ~0.5) and the maximum stretch (paper: ≤ ~1.35).
func BenchmarkFig4bPathStretch(b *testing.B) {
	var atOne, max float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4(fig4Bench(topo.Exodus))
		if err != nil {
			b.Fatal(err)
		}
		e := stats.NewECDF(res[0].Stretch)
		atOne = e.Eval(1.0 + 1e-9)
		max = e.Max()
	}
	b.ReportMetric(atOne, "F(1.0)")
	b.ReportMetric(max, "maxStretch")
}

// BenchmarkFig3Fairness regenerates the Figure 3 example; the reported
// metrics are the Jain indices (paper: 0.73 e2e, 1.0 INRPP).
func BenchmarkFig3Fairness(b *testing.B) {
	var r *experiments.Fig3Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Fig3()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.E2EJain, "e2eJain")
	b.ReportMetric(r.INRPJain, "inrpJain")
}

// BenchmarkCustodyBackpressure regenerates the §3.3 custody claim at a
// reduced scale; the reported metrics are INRPP drops (paper: custody
// avoids drops) and AIMD drops (the baseline loses packets).
func BenchmarkCustodyBackpressure(b *testing.B) {
	cfg := experiments.CustodyConfig{
		IngressRate: 4 * units.Gbps,
		EgressRate:  200 * units.Mbps,
		Custody:     units.GB,
		Buffer:      2 * units.MB,
		ChunkSize:   units.MB,
		Chunks:      600,
		Horizon:     4 * time.Second,
	}
	var r *experiments.CustodyResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Custody(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.INRPP.Dropped), "inrppDrops")
	b.ReportMetric(float64(r.AIMD.Dropped), "aimdDrops")
	b.ReportMetric(r.HoldSeconds, "holdSecs")
}

// BenchmarkAblationDetourDepth ablates the detour search depth: no
// detours at all, 1-hop only, and 1-hop plus the paper's extra hop.
func BenchmarkAblationDetourDepth(b *testing.B) {
	run := func(b *testing.B, planner core.PlannerConfig, policy flowsim.Policy) {
		g := topo.MustBuildISP(topo.Exodus)
		g.SetAllCapacities(450 * units.Mbps)
		flows := benchWorkload(g, 240)
		var sat float64
		for i := 0; i < b.N; i++ {
			r, err := flowsim.Run(flowsim.Config{
				Graph: g, Policy: policy, Flows: flows,
				Horizon: 8 * time.Second, DemandCap: 300 * units.Mbps,
				Planner: planner,
			})
			if err != nil {
				b.Fatal(err)
			}
			sat = r.DemandSatisfied
		}
		b.ReportMetric(sat, "throughput")
	}
	b.Run("none(SP)", func(b *testing.B) {
		run(b, core.DefaultPlannerConfig(), flowsim.SP)
	})
	b.Run("1hop", func(b *testing.B) {
		run(b, core.PlannerConfig{Mode: core.CapacityAware, ExtraHop: false, MaxCandidates: 8}, flowsim.INRP)
	})
	b.Run("1hop+extra", func(b *testing.B) {
		run(b, core.PlannerConfig{Mode: core.CapacityAware, ExtraHop: true, MaxCandidates: 8}, flowsim.INRP)
	})
}

// BenchmarkAblationBlindDetour compares capacity-aware detouring (routers
// exchange neighbour utilisation, §3.3 option i) against blind equal
// splitting (option ii) in the chunk-level simulator.
func BenchmarkAblationBlindDetour(b *testing.B) {
	run := func(b *testing.B, mode core.PlannerMode) {
		var delivered int64
		for i := 0; i < b.N; i++ {
			g := topo.Fig3()
			s, err := chunknet.New(chunknet.Config{
				Graph: g, Transport: chunknet.INRPP,
				ChunkSize: 10 * units.KB, Anticipation: 64,
				CustodyBytes: 50 * units.MB, InitialRequestRate: 10 * units.Mbps,
				Ti:      5 * time.Millisecond,
				Planner: core.PlannerConfig{Mode: mode, ExtraHop: true, MaxCandidates: 8},
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := s.AddTransfer(chunknet.Transfer{ID: 1, Src: 0, Dst: 2, Chunks: 400}); err != nil {
				b.Fatal(err)
			}
			rep := s.Run(10 * time.Second)
			delivered = rep.DeliveredPerFlow[1]
		}
		b.ReportMetric(float64(delivered), "chunks")
	}
	b.Run("capacity-aware", func(b *testing.B) { run(b, core.CapacityAware) })
	b.Run("blind", func(b *testing.B) { run(b, core.Blind) })
}

// BenchmarkAblationAnticipation sweeps the Ac anticipation window: 0 is a
// pure closed loop, larger values push more speculative data into the
// network (§3.2).
func BenchmarkAblationAnticipation(b *testing.B) {
	for _, ac := range []int64{1, 8, 64} {
		b.Run("Ac="+itoa(ac), func(b *testing.B) {
			var fct time.Duration
			for i := 0; i < b.N; i++ {
				g := topo.Line(4)
				s, err := chunknet.New(chunknet.Config{
					Graph: g, Transport: chunknet.INRPP,
					ChunkSize: 10 * units.KB, Anticipation: ac,
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := s.AddTransfer(chunknet.Transfer{ID: 1, Src: 0, Dst: 3, Chunks: 400}); err != nil {
					b.Fatal(err)
				}
				rep := s.Run(30 * time.Second)
				fct = rep.Completions[1]
			}
			b.ReportMetric(fct.Seconds(), "fct_s")
		})
	}
}

// BenchmarkAblationCacheSize sweeps the custody budget: zero custody
// degenerates to a plain buffer (drops under surge), the paper's sizing
// absorbs the full push.
func BenchmarkAblationCacheSize(b *testing.B) {
	// 1B stands in for "no custody" (a zero Custody field would select the
	// experiment's 10GB default). Back-pressure alone already avoids
	// drops; what custody buys is absorption — more of the open-loop push
	// delivered within the horizon.
	for _, custody := range []units.ByteSize{units.Byte, 100 * units.MB, units.GB} {
		b.Run(custody.String(), func(b *testing.B) {
			var drops int64
			var peakMB float64
			for i := 0; i < b.N; i++ {
				r, err := experiments.Custody(experiments.CustodyConfig{
					IngressRate: 4 * units.Gbps,
					EgressRate:  200 * units.Mbps,
					Custody:     custody,
					Buffer:      2 * units.MB,
					ChunkSize:   units.MB,
					Chunks:      600,
					Horizon:     4 * time.Second,
				})
				if err != nil {
					b.Fatal(err)
				}
				drops = r.INRPP.Dropped
				peakMB = float64(r.INRPP.CustodyPeak) / float64(units.MB)
			}
			b.ReportMetric(float64(drops), "drops")
			b.ReportMetric(peakMB, "peakMB")
		})
	}
}

// BenchmarkFig4Scaled exercises the flowsim allocator at the paper's
// full Figure 4 scale — thousands of concurrently active flows on an ISP
// topology — so allocator churn dominates the profile. The SP variant
// isolates the max-min fill; INRP adds the pooling fixpoint. ReportAllocs
// makes the allocator's per-event allocation churn a tracked metric: the
// flow-class allocator must hold it near zero.
func BenchmarkFig4Scaled(b *testing.B) {
	for _, pol := range []flowsim.Policy{flowsim.SP, flowsim.INRP} {
		b.Run(pol.String(), func(b *testing.B) {
			g := topo.MustBuildISP(topo.Exodus)
			g.SetAllCapacities(450 * units.Mbps)
			flows := scaledWorkload(g, 5000)
			var r *flowsim.Result
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				r, err = flowsim.Run(flowsim.Config{
					Graph: g, Policy: pol, Flows: flows,
					Horizon: 1500 * time.Millisecond, DemandCap: 300 * units.Mbps,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.DemandSatisfied, "throughput")
		})
	}
}

// BenchmarkFig4Huge pushes the flowsim event loop two orders of
// magnitude past BenchmarkFig4Scaled: 100k flows on the Exodus topology,
// run to completion. At this scale the per-event cost is what matters —
// the completion min-heap and class-granularity accounting keep each
// event at O(active + classes) instead of O(flows) scans — and steady-
// state allocation churn must stay at zero (ReportAllocs + the bench.sh
// allocs/op gate). Sizes are kept small so the population turns over
// (~10⁵ completion events) rather than accumulating, and capacity vs
// demand leaves the network moderately congested: enough saturated arcs
// to exercise the INRP pooling rounds. Most INRP allocations here reach
// their fixpoint in round 0 (1.12 class fills per allocation against 4
// pooling rounds), so the INRP variant mostly measures the allocator's
// fixpoint exit and its sweeps over weighted arcs; in
// BenchmarkFig4Scaled rounds rarely converge (3.95 fills per
// allocation), so it measures the fill itself.
func BenchmarkFig4Huge(b *testing.B) {
	for _, pol := range []flowsim.Policy{flowsim.SP, flowsim.INRP} {
		b.Run(pol.String(), func(b *testing.B) {
			g := topo.MustBuildISP(topo.Exodus)
			g.SetAllCapacities(450 * units.Mbps)
			flows := hugeWorkload(g, 100_000)
			var r *flowsim.Result
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				r, err = flowsim.Run(flowsim.Config{
					Graph: g, Policy: pol, Flows: flows,
					DemandCap: 100 * units.Mbps,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(r.Completed), "completed")
			b.ReportMetric(r.DemandSatisfied, "throughput")
		})
	}
}

// hugeWorkload builds the 10⁵-flow benchmark workload: arrivals span ≈4s
// of virtual time, sizes are heavy-tailed but small enough that flows
// complete in tens of milliseconds, keeping the concurrently active
// population in the hundreds while the total flow count scales freely.
func hugeWorkload(g *topo.Graph, count int) []workload.Flow {
	return workload.Generate(workload.Spec{
		Arrivals: workload.NewPoisson(float64(count)/8, 1),
		Sizes:    workload.NewBoundedPareto(1.5, 32*units.KB, 4*units.MB, 2),
		Matrix:   workload.NewGravity(g, 3),
		Count:    count,
	})
}

// BenchmarkChunknetFanIn exercises the chunk-level DES hot path: 64
// concurrent transfers fan in from eight sources through a hub onto one
// bottleneck egress, so per-packet forwarding, store churn and event
// scheduling dominate. ReportAllocs tracks the per-packet/per-event
// allocation churn the object pools must eliminate.
func BenchmarkChunknetFanIn(b *testing.B) {
	const (
		leaves    = 8
		transfers = 64
	)
	var delivered int64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := topo.New("fanin")
		g.AddNodes(leaves + 2)
		hub, sink := topo.NodeID(leaves), topo.NodeID(leaves+1)
		for l := 0; l < leaves; l++ {
			g.MustAddLink(topo.NodeID(l), hub, 10*units.Gbps, time.Millisecond)
		}
		g.MustAddLink(hub, sink, 2*units.Gbps, time.Millisecond)
		s, err := chunknet.New(chunknet.Config{
			Graph: g, Transport: chunknet.INRPP,
			ChunkSize: 100 * units.KB, Anticipation: 64,
			CustodyBytes: 200 * units.MB, InitialRequestRate: units.Gbps,
			Ti: 10 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		for t := 0; t < transfers; t++ {
			if err := s.AddTransfer(chunknet.Transfer{
				ID: t + 1, Src: topo.NodeID(t % leaves), Dst: sink,
				Chunks: 300, Start: time.Duration(t) * time.Millisecond,
			}); err != nil {
				b.Fatal(err)
			}
		}
		rep := s.Run(3 * time.Second)
		delivered = rep.ChunksDelivered
	}
	b.ReportMetric(float64(delivered), "chunks")
}

// BenchmarkChunknetDetour drives the Fig. 3 triangle hard enough that the
// direct arc saturates and pickDetour runs on the forwarding hot path for
// a large share of chunks. ReportAllocs gates the detour search's
// allocation churn: candidate filtering must reuse the sim-level scratch
// slice instead of allocating per call.
func BenchmarkChunknetDetour(b *testing.B) {
	var detoured int64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := topo.Fig3()
		s, err := chunknet.New(chunknet.Config{
			Graph: g, Transport: chunknet.INRPP,
			ChunkSize: 10 * units.KB, Anticipation: 64,
			CustodyBytes: 50 * units.MB, InitialRequestRate: 10 * units.Mbps,
			Ti:      5 * time.Millisecond,
			Planner: core.PlannerConfig{Mode: core.CapacityAware, ExtraHop: true, MaxCandidates: 8},
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.AddTransfer(chunknet.Transfer{ID: 1, Src: 0, Dst: 2, Chunks: 1200}); err != nil {
			b.Fatal(err)
		}
		rep := s.Run(20 * time.Second)
		detoured = rep.ChunksDetoured
	}
	b.ReportMetric(float64(detoured), "detoured")
}

// BenchmarkChunknetLossy pushes a long transfer across a 5%-lossy
// bottleneck, so the per-packet loss draw and the NACK/resend recovery
// loop dominate the event stream. ReportAllocs gates the loss path: the
// draw is one Float64 from the arc's seeded stream and must stay
// allocation-free, as must the resend bookkeeping it triggers.
func BenchmarkChunknetLossy(b *testing.B) {
	var lost, delivered int64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := topo.New("lossy-chain")
		g.AddNodes(3)
		g.MustAddLink(0, 1, 100*units.Mbps, time.Millisecond)
		egress := g.MustAddLink(1, 2, 10*units.Mbps, time.Millisecond)
		g.SetLinkLoss(egress, 0.05)
		s, err := chunknet.New(chunknet.Config{
			Graph: g, Transport: chunknet.INRPP,
			ChunkSize: 10 * units.KB, Anticipation: 64,
			CustodyBytes: 50 * units.MB, InitialRequestRate: 100 * units.Mbps,
			ChurnSeed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.AddTransfer(chunknet.Transfer{ID: 1, Src: 0, Dst: 2, Chunks: 2000}); err != nil {
			b.Fatal(err)
		}
		rep := s.Run(30 * time.Second)
		lost, delivered = rep.PktsLostRandom, rep.ChunksDelivered
	}
	b.ReportMetric(float64(lost), "lost")
	b.ReportMetric(float64(delivered), "delivered")
}

// scaledWorkload builds a deterministic gravity workload whose arrivals
// span ≈4s of virtual time at any count, so thousands of flows are
// concurrently active within a short horizon.
func scaledWorkload(g *topo.Graph, count int) []workload.Flow {
	return benchWorkloadAt(g, count, float64(count)/4)
}

// benchWorkload builds a deterministic gravity workload for ablations.
func benchWorkload(g *topo.Graph, count int) []workload.Flow {
	return benchWorkloadAt(g, count, 30)
}

// benchWorkloadAt is the shared recipe: Poisson arrivals at the given
// rate, heavy-tailed sizes, gravity endpoints — fixed seeds throughout.
func benchWorkloadAt(g *topo.Graph, count int, rate float64) []workload.Flow {
	return workload.Generate(workload.Spec{
		Arrivals: workload.NewPoisson(rate, 1),
		Sizes:    workload.NewBoundedPareto(1.5, 10*units.MB, 1200*units.MB, 2),
		Matrix:   workload.NewGravity(g, 3),
		Count:    count,
	})
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
