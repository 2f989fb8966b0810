// Command perfbench is the repository benchmark. It runs one named
// workload through the same public path as cmd/sweep — Grid.Expand,
// Runner.Accumulate with a Checkpoint, Accumulator.Aggregates and the
// Table/CSV/JSON renderers, or a sweepd coordinator with RunWorker
// workers — checks every output, and prints its metrics. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Untraced (--trace 0) it reports the end-to-end metrics of
// BENCHMARK.json; traced (--trace 1) it reports the per-layer metrics,
// from spans recorded around calls into each module, per-scenario
// obs.Registry counters and a CPU profile bucketed by module.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload flow-pool --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh spans .bench_build/perfbench/flow-pool-seed1.spans.jsonl
//
// See perfbench/README.md for the workloads and what each metric is
// expected to move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command body; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "spans" {
		return spansCmd(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opts options
	fs.StringVar(&opts.workload, "workload", "", "workload: flow-pool, chunk-fanin or sweep-service")
	fs.Int64Var(&opts.seed, "seed", defaultSeed, "input seed (the grids' master seed)")
	fs.Float64Var(&opts.seconds, "seconds", 20, "how long to run passes")
	traceN := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&opts.size, "size", "full", "grid size: full or tiny (for tests)")
	fs.StringVar(&opts.dir, "out", ".bench_build/perfbench", "directory for checkpoints, spans and profiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceN != 0 && *traceN != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	opts.trace = *traceN == 1
	w, err := newWorkload(opts.workload, opts.size)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	runtime.GOMAXPROCS(workers())
	res, err := execute(context.Background(), opts, w)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	var metrics map[string]metric
	if opts.trace {
		metrics = layerMetrics(stdout, res)
	} else {
		metrics = endToEnd(stdout, res, opts.workload)
	}
	for _, n := range res.notes {
		fmt.Fprintln(stdout, "FAILED CHECK:", n)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, metrics})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// spansCmd is the span-file reader: it prints each layer's self time.
func spansCmd(args []string, stdout, stderr io.Writer) int {
	if len(args) != 1 {
		fmt.Fprintln(stderr, "usage: perfbench spans FILE.spans.jsonl")
		return 2
	}
	f, err := os.Open(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer f.Close()
	spans, err := readSpans(f)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	printSelfTimes(stdout, selfTimes(spans))
	return 0
}
