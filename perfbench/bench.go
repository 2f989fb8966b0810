package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/sweep"
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	size     string // "full" or "tiny"
	dir      string // scratch directory for checkpoints, spans and profiles
}

// A run times setupReps set-ups back to back before its first pass,
// after setupWarm untimed ones, and reports their median. One set-up
// takes well under a millisecond on flow-pool and chunk-fanin: timed
// after the passes, or right after a pass's garbage collection, it
// mostly measures the state the passes left the heap and caches in.
const (
	setupWarm = 5
	setupReps = 25
)

// workers is the scenario worker count (and GOMAXPROCS): the machine's
// CPUs, capped at two so runs on bigger hosts stay comparable.
func workers() int { return min(2, runtime.NumCPU()) }

// aggConfig is cmd/sweep's default aggregation (-agg auto).
var aggConfig = sweep.AccumulatorConfig{Mode: sweep.AggAuto}

// workload builds the fixture of one pass. setup covers everything
// before the first scenario starts; the returned pass runs the grid to
// its rendered output.
type workload interface {
	setup(b *bench, n int) (pass, error)
}

// pass is one set-up grid, ready to run once.
type pass interface {
	// run executes the grid and renders it, returning the rendered bytes
	// and the wall time from the first scenario dispatched to the
	// rendered output.
	run(ctx context.Context, b *bench, pr *passResult) ([]byte, time.Duration, error)
	// close releases what setup created (files, servers).
	close()
}

// passResult is everything measured over one pass.
type passResult struct {
	traced     bool
	wall       time.Duration
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	digest     string
	col        *collector
	busyNS     int64 // scenario time summed over the sweep runners
	pendingMax atomic.Int64
	cpRecords  int
	cpBytes    int64
	svc        *serviceStats // sweep-service only
}

// collector gathers the observations of every scenario run in one pass.
type collector struct {
	mu     sync.Mutex
	lat    []float64 // scenario seconds
	counts map[string]int64
	peaks  map[string]int64
	ran    int
	failed int // scenarios returning an error
	bad    int // scenarios violating an invariant
	notes  []string
}

func newCollector() *collector {
	return &collector{counts: map[string]int64{}, peaks: map[string]int64{}}
}

func (c *collector) record(name string, elapsed time.Duration, err error, counts, peaks map[string]int64, violations []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ran++
	c.lat = append(c.lat, elapsed.Seconds())
	if err != nil {
		c.failed++
		c.note(fmt.Sprintf("scenario %s failed: %v", name, err))
	}
	if len(violations) > 0 {
		c.bad++
		c.note(fmt.Sprintf("scenario %s: %s", name, strings.Join(violations, "; ")))
	}
	for k, v := range counts {
		c.counts[k] += v
	}
	for k, v := range peaks {
		c.peaks[k] = max(c.peaks[k], v)
	}
}

// note keeps the first few failure messages; callers hold c.mu.
func (c *collector) note(s string) {
	if len(c.notes) < 5 {
		c.notes = append(c.notes, s)
	}
}

// scenarioBody is one scenario in both modes: run is the public RunFunc
// path cmd/sweep uses; traced makes the same public calls one by one
// with a span around each, so the traced run's output must match byte
// for byte. check returns the invariant violations of one result, given
// the scenario's registry counters.
type scenarioBody struct {
	run    func(ctx context.Context, reg *obs.Registry) (sweep.Metrics, error)
	traced func(ctx context.Context, reg *obs.Registry, tr *tracer, parent int64) (sweep.Metrics, error)
	check  func(m sweep.Metrics, count func(counter string) int64) []string
}

// tracedRun builds a scenario's traced body: the calls its RunFunc
// makes, one by one, with a span named layer around the simulation and
// one around the metrics conversion.
func tracedRun[R any](layer, name string, simulate func(*obs.Registry) (R, error), metrics func(R) sweep.Metrics) func(context.Context, *obs.Registry, *tracer, int64) (sweep.Metrics, error) {
	return func(ctx context.Context, reg *obs.Registry, tr *tracer, parent int64) (sweep.Metrics, error) {
		if err := ctx.Err(); err != nil {
			return sweep.Metrics{}, err
		}
		h := tr.start(layer, name, parent)
		r, err := simulate(reg)
		h.end(nil)
		if err != nil {
			return sweep.Metrics{}, err
		}
		h = tr.start("sweep.metrics", name, parent)
		m := metrics(r)
		h.end(nil)
		return m, nil
	}
}

// bench is the state of one invocation.
type bench struct {
	opts    options
	tr      *tracer // nil unless opts.trace
	tracing atomic.Bool
	cur     atomic.Pointer[collector]
	passSeq atomic.Int64 // span of the pass in flight
	parents sync.Map     // scenario name → span of the sweepd batch running it
}

// tracer returns the tracer while the traced phase runs, else nil.
func (b *bench) tracer() *tracer {
	if b.tracing.Load() {
		return b.tr
	}
	return nil
}

// parentOf returns the span a scenario's span hangs under: its sweepd
// batch when it was leased, else the pass.
func (b *bench) parentOf(name string) int64 {
	if v, ok := b.parents.Load(name); ok {
		return v.(int64)
	}
	return b.passSeq.Load()
}

// wrap turns a scenario body into the RunFunc the grid runs. Each run
// gets its own obs.Registry, handed to the simulator through the public
// FlowSpec/ChunkSpec Obs field, so its counters attribute to it.
func (b *bench) wrap(name string, body scenarioBody) sweep.RunFunc {
	return func(ctx context.Context) (sweep.Metrics, error) {
		col := b.cur.Load()
		reg := obs.New(name)
		tr := b.tracer()
		h := tr.start("scenario", name, b.parentOf(name))
		start := time.Now()
		var m sweep.Metrics
		var err error
		if tr == nil {
			m, err = body.run(ctx, reg)
		} else {
			m, err = body.traced(ctx, reg, tr, h.seq())
		}
		elapsed := time.Since(start)
		var violations []string
		if err == nil {
			violations = body.check(m, func(k string) int64 { return reg.Counter(k).Value() })
		}
		// Only the traced run reports counts, so only it pays for a full
		// snapshot; per-arc series are left out, the totals hold them.
		var counts, peaks map[string]int64
		if tr != nil {
			snap := reg.Snapshot()
			counts, peaks = map[string]int64{}, snap.Gauges
			for k, v := range snap.Counters {
				if !strings.Contains(k, "{") {
					counts[k] = v
				}
			}
		}
		h.end(counts)
		col.record(name, elapsed, err, counts, peaks, violations)
		return m, err
	}
}

// render writes the aggregates as cmd/sweep's three output formats, one
// after the other.
func render(title string, aggs []sweep.Aggregate) ([]byte, error) {
	var buf bytes.Buffer
	if err := sweep.Table(title, aggs).Render(&buf); err != nil {
		return nil, err
	}
	if err := sweep.CSV(&buf, aggs); err != nil {
		return nil, err
	}
	if err := sweep.JSON(&buf, aggs); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// aggregateAndRender reads an accumulator's aggregates and renders them,
// with a span around each step.
func (b *bench) aggregateAndRender(title string, acc *sweep.Accumulator) ([]byte, error) {
	tr := b.tracer()
	h := tr.start("sweep.aggregate", "", b.passSeq.Load())
	aggs, err := acc.Aggregates()
	h.end(nil)
	if err != nil {
		return nil, err
	}
	h = tr.start("sweep.render", "", b.passSeq.Load())
	out, err := render(title, aggs)
	h.end(nil)
	return out, err
}

// runResult is what one invocation measured and checked.
type runResult struct {
	setups    []float64
	passes    []*passResult
	attempted int
	failed    int
	notes     []string
	profile   []cpuSample
	spans     []span
}

// add counts a collector's scenarios and failures into the result.
func (r *runResult) add(c *collector) {
	r.attempted += c.ran
	r.failed += c.failed + c.bad
	for _, n := range c.notes {
		r.note(n)
	}
}

// fail counts one failed output check.
func (r *runResult) fail(note string) {
	r.failed++
	r.note(note)
}

// note keeps the first few failure messages for the report.
func (r *runResult) note(n string) {
	if len(r.notes) < 10 {
		r.notes = append(r.notes, n)
	}
}

// execute runs one invocation: the timed set-ups, untraced passes for
// the whole time (or half of it when tracing), then traced passes under
// the CPU profiler, then the output checks.
func execute(ctx context.Context, opts options, w workload) (*runResult, error) {
	if err := os.MkdirAll(opts.dir, 0o755); err != nil {
		return nil, err
	}
	b := &bench{opts: opts}
	if opts.trace {
		b.tr = newTracer()
	}
	res := &runResult{}
	for i := 0; i < setupWarm+setupReps; i++ {
		runtime.GC() // each set-up starts from the same collected heap
		t0 := time.Now()
		p, err := w.setup(b, -1-i)
		if err != nil {
			return nil, err
		}
		if i >= setupWarm {
			res.setups = append(res.setups, time.Since(t0).Seconds())
		}
		p.close()
	}

	budget := time.Duration(opts.seconds * float64(time.Second))
	untracedUntil := budget
	if opts.trace {
		untracedUntil = budget / 2
	}
	start := time.Now()
	runPhase := func(traced bool, until time.Duration) error {
		for n := 0; n == 0 || time.Since(start) < until; n++ {
			pr, err := runPass(ctx, b, w, len(res.passes), traced)
			if err != nil {
				return err
			}
			res.passes = append(res.passes, pr)
		}
		return nil
	}
	if err := runPhase(false, untracedUntil); err != nil {
		return nil, err
	}
	if opts.trace {
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		b.tracing.Store(true)
		err := runPhase(true, budget)
		b.tracing.Store(false)
		pprof.StopCPUProfile()
		if err != nil {
			return nil, err
		}
		samples, err := parseCPUProfile(prof.Bytes())
		if err != nil {
			return nil, err
		}
		res.profile = samples
		res.spans = b.tr.snapshot()
		base := filepath.Join(opts.dir, fmt.Sprintf("%s-seed%d", opts.workload, opts.seed))
		if err := os.WriteFile(base+".cpu.pprof", prof.Bytes(), 0o644); err != nil {
			return nil, err
		}
		if err := writeSpans(base+".spans.jsonl", res.spans); err != nil {
			return nil, err
		}
	}

	for _, pr := range res.passes {
		res.add(pr.col)
	}
	checkOutputs(res, opts)
	if s, ok := w.(*service); ok {
		col := newCollector()
		b.cur.Store(col)
		if err := s.crossCheck(ctx, b, res); err != nil {
			return nil, err
		}
		res.add(col)
	}
	return res, nil
}

// runPass sets up and runs one pass, measuring it.
func runPass(ctx context.Context, b *bench, w workload, n int, traced bool) (*passResult, error) {
	runtime.GC() // start every pass from a collected heap
	pr := &passResult{traced: traced, col: newCollector()}
	b.cur.Store(pr.col)
	h := b.tracer().start("sweep.pass", fmt.Sprintf("pass-%d", n), 0)
	b.passSeq.Store(h.seq())
	p, err := w.setup(b, n)
	if err != nil {
		return nil, err
	}
	defer p.close()
	cpu0 := cpuTime()
	m0, b0 := heapAllocs()
	out, wall, err := p.run(ctx, b, pr)
	if err != nil {
		return nil, err
	}
	pr.wall = wall
	pr.cpu = cpuTime() - cpu0
	m1, b1 := heapAllocs()
	pr.mallocs, pr.allocBytes = m1-m0, b1-b0
	h.end(nil)
	pr.digest = digestOf(out)
	return pr, nil
}

// digestOf returns the hex SHA-256 of rendered output.
func digestOf(out []byte) string {
	sum := sha256.Sum256(out)
	return hex.EncodeToString(sum[:])
}

// checkOutputs applies the run-level output checks: every pass renders
// the same bytes (traced passes included, since instrumentation must
// change no byte), the default seed renders its recorded digest, and
// traced passes count the same simulated work.
func checkOutputs(res *runResult, opts options) {
	first := res.passes[0]
	for _, pr := range res.passes[1:] {
		if pr.digest != first.digest {
			what := "untraced passes render different bytes"
			if pr.traced {
				what = "traced output differs from untraced output"
			}
			res.fail(what)
		}
	}
	if opts.seed == defaultSeed {
		want := digests[opts.workload+"/"+opts.size]
		if first.digest != want {
			res.fail(fmt.Sprintf("default-seed digest %s, recorded %q", first.digest, want))
		}
	}
	var ref *passResult
	for _, pr := range res.passes {
		if !pr.traced {
			continue
		}
		if ref == nil {
			ref = pr
			continue
		}
		if !sameCounts(ref.col.counts, pr.col.counts) {
			res.fail("traced passes count different simulated work")
		}
	}
}

func sameCounts(a, b map[string]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
