// Package repro is a from-scratch Go reproduction of "Revisiting Resource
// Pooling: The Case for In-Network Resource Sharing" (Psaras, Saino,
// Pavlou — ACM HotNets-XIII, 2014): the In-Network Resource Pooling
// Principle (INRPP), its substrates, and every experiment in the paper.
//
// This root package is a small facade over the implementation packages.
// It carries exactly what the runnable walkthroughs in examples/ and the
// README's sweep snippet call, plus the types those calls mention:
//
//   - internal/core     — the INRPP protocol logic (phases, eq. 1
//     estimator, detour planner);
//   - internal/topo     — graphs, generators and the nine calibrated
//     synthetic ISP topologies of Table 1;
//   - internal/route    — shortest paths, ECMP, detour classification;
//   - internal/flowsim  — the flow-level simulator behind Figure 4;
//   - internal/chunknet — the chunk-level INRPP/AIMD/ARC simulator behind
//     the custody experiment;
//   - internal/sweep    — the scenario-sweep engine;
//   - internal/experiments — one harness per paper artifact.
//
// Everything else — checkpoints, shards, streaming aggregation, the sweep
// service, the failure model and observability — is driven through
// cmd/sweep; cmd/experiments prints the paper-vs-measured tables.
package repro

import (
	"context"

	"repro/internal/chunknet"
	"repro/internal/experiments"
	"repro/internal/flowsim"
	"repro/internal/report"
	"repro/internal/route"
	"repro/internal/sweep"
	"repro/internal/topo"
	"repro/internal/units"
)

// Re-exported types. The aliases make the facade usable from a single
// import.
type (
	// Graph is an undirected capacitated topology.
	Graph = topo.Graph
	// ISP names one of the paper's nine Table 1 topologies.
	ISP = topo.ISP
	// ByteSize is an amount of data in bytes.
	ByteSize = units.ByteSize
	// FlowPolicy selects SP, ECMP or INRP in the flow-level simulator.
	FlowPolicy = flowsim.Policy
	// FlowConfig configures a flow-level run.
	FlowConfig = flowsim.Config
	// FlowResult is a flow-level run's outcome.
	FlowResult = flowsim.Result
	// DetourProfile is a topology's Table 1 row.
	DetourProfile = route.Profile
	// ReportTable is a renderable text/CSV result table.
	ReportTable = report.Table

	// SweepGrid builds parameter grids for scenario sweeps.
	SweepGrid = sweep.Grid
	// SweepPoint is one parameter cell of a sweep grid.
	SweepPoint = sweep.Point
	// SweepScenario is one unit of sweep work.
	SweepScenario = sweep.Scenario
	// SweepResult is one scenario's outcome.
	SweepResult = sweep.Result
	// SweepRunFunc executes one scenario.
	SweepRunFunc = sweep.RunFunc
	// SweepAggregate summarises the replicas of one grid point.
	SweepAggregate = sweep.Aggregate
	// FlowSweepSpec is the reusable flow-level scenario recipe (topology +
	// workload + policy).
	FlowSweepSpec = sweep.FlowSpec
	// ChunkSweepSpec is the reusable chunk-level scenario recipe (custody
	// bottleneck chain + transport).
	ChunkSweepSpec = sweep.ChunkSpec
)

// Rate and size constants.
const (
	Mbps = units.Mbps
	Gbps = units.Gbps
	MB   = units.MB
	GB   = units.GB
)

// Flow-level policies (Figure 4 legend).
const (
	SP   = flowsim.SP
	INRP = flowsim.INRP
)

// INRPP is the chunk-level in-network pooling transport.
const INRPP = chunknet.INRPP

// BuildISP synthesizes the named ISP's calibrated topology.
func BuildISP(isp ISP) (*Graph, error) { return topo.BuildISP(isp) }

// Fig3Topology returns the paper's Figure 3 example topology.
func Fig3Topology() *Graph { return topo.Fig3() }

// AnalyzeDetours classifies every link of g by its shortest alternative
// path — one row of Table 1.
func AnalyzeDetours(g *Graph) DetourProfile { return route.Analyze(g) }

// RunFlows executes a flow-level simulation (Figure 4 machinery).
func RunFlows(cfg FlowConfig) (*FlowResult, error) { return flowsim.Run(cfg) }

// Fig3Fairness regenerates the Figure 3 fairness example.
func Fig3Fairness() (*experiments.Fig3Result, error) { return experiments.Fig3() }

// NewSweepGrid returns an empty sweep parameter grid.
func NewSweepGrid() *SweepGrid { return sweep.NewGrid() }

// MustParseFlowPolicy maps "sp"/"ecmp"/"inrp" (any case) to a FlowPolicy,
// panicking on anything else; use it for known-good axis values.
func MustParseFlowPolicy(s string) FlowPolicy { return sweep.MustParsePolicy(s) }

// MustParseChunkTransport maps "inrpp"/"aimd"/"arc" (any case) to a chunk
// transport, panicking on anything else; use it for known-good axis
// values.
func MustParseChunkTransport(s string) chunknet.Transport { return sweep.MustParseTransport(s) }

// RunSweep executes scenarios on a worker pool (workers ≤ 0 means
// GOMAXPROCS). Results come back in scenario order at any worker count.
func RunSweep(ctx context.Context, workers int, scenarios []SweepScenario) []SweepResult {
	return (&sweep.Runner{Workers: workers}).Run(ctx, scenarios)
}

// AggregateSweep groups results by grid point and accumulates replica
// metrics.
func AggregateSweep(results []SweepResult) []SweepAggregate {
	return sweep.Aggregated(results)
}

// SweepTable renders aggregates as a mean±std table.
func SweepTable(title string, aggs []SweepAggregate, metrics ...string) *ReportTable {
	return sweep.Table(title, aggs, metrics...)
}
