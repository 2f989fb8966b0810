package sweep

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/stats"
)

// AggMode selects an Accumulator's aggregation representation.
type AggMode int

const (
	// AggExact keeps every raw replica value and pooled sample, exactly
	// like the batch Aggregated path — byte-identical output, O(samples)
	// memory.
	AggExact AggMode = iota
	// AggSketch keeps streaming summaries plus bounded quantile sketches —
	// O(sketch size) memory per grid point regardless of replica or sample
	// count; Percentile answers within the sketch's documented bound.
	AggSketch
	// AggAuto starts exact and cuts over to the sketch representation the
	// moment pooled raw values — sample-set values plus per-replica series
	// values — exceed the accumulator's SampleBudget. The cutover replays
	// the pooled history into fresh sketches in the same order, so an auto
	// accumulator's final state is bit-identical to either a pure AggExact
	// run (budget never crossed) or a pure AggSketch run (budget crossed)
	// of the same results.
	AggAuto
)

// String renders the canonical flag value ("exact", "sketch", "auto").
func (m AggMode) String() string {
	switch m {
	case AggExact:
		return "exact"
	case AggSketch:
		return "sketch"
	case AggAuto:
		return "auto"
	default:
		return fmt.Sprintf("AggMode(%d)", int(m))
	}
}

// ParseAggMode maps "exact"/"sketch"/"auto" (any case) to an AggMode.
func ParseAggMode(s string) (AggMode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "exact":
		return AggExact, nil
	case "sketch":
		return AggSketch, nil
	case "auto":
		return AggAuto, nil
	default:
		return 0, fmt.Errorf("sweep: unknown aggregation mode %q (known: exact, sketch, auto)", s)
	}
}

// DefaultSampleBudget is the pooled-raw-sample count above which an AggAuto
// accumulator cuts over to sketches: 2²⁰ float64 samples ≈ 8 MB per run,
// comfortably inside one host while far below the 10⁶-scenario grids that
// motivated sketching.
const DefaultSampleBudget = 1 << 20

// AccumulatorConfig parameterises NewAccumulator.
type AccumulatorConfig struct {
	// Mode selects the representation (default AggExact).
	Mode AggMode
	// Eps is the sketches' rank-error fraction; ≤ 0 means
	// stats.DefaultSketchEps, and it must be < 0.5 (NewAccumulator panics
	// otherwise, at construction rather than mid-sweep). Ignored by
	// AggExact.
	Eps float64
	// SampleBudget is the pooled-raw-value count (sample-set values plus
	// per-replica series values) above which AggAuto cuts over to
	// sketches; ≤ 0 means DefaultSampleBudget. Ignored by the other
	// modes.
	SampleBudget int64
}

// Accumulator folds Results into per-point Aggregates as they arrive,
// instead of materialising the full []Result first. Results may be observed
// in any order — workers finish when they finish — but folding happens in
// scenario order behind a reassembly cursor, so the aggregates (and, in
// exact mode, their bytes) are identical to Aggregated over the same
// results no matter the arrival schedule. Results that arrive ahead of the
// cursor wait in a pending set of shallow Result copies (metric maps stay
// shared with the caller's values, not duplicated); in a live run its size
// tracks the completion skew of the moment (≈ in-flight scenarios). The
// checkpoint resume (Runner.ResumeCheckpointAccumulate) leaves restored
// results on disk and feeds each one exactly when the cursor reaches it,
// so they never park.
//
// Observe is safe for concurrent use; Runner.Accumulate and
// Runner.ResumeCheckpointAccumulate drive it from the worker pool,
// MergeCheckpointsInto and the sweepd coordinator drive it in scenario
// order.
type Accumulator struct {
	mode     AggMode
	eps      float64
	budget   int64
	sketched bool // true in AggSketch, or AggAuto past its budget

	mu      sync.Mutex
	byName  map[string]int
	seen    []bool
	pending map[int]*Result
	next    int // fold cursor: the next scenario index to fold

	index     map[string]int // point key → aggs index
	aggs      []Aggregate
	rawValues int64 // pooled raw values held (exact phase): samples + series
}

// NewAccumulator returns an accumulator for exactly the given scenario
// list. Every scenario must be observed exactly once — run, restored,
// failed or skipped — before Aggregates will answer.
func NewAccumulator(cfg AccumulatorConfig, scenarios []Scenario) *Accumulator {
	if cfg.Eps <= 0 {
		cfg.Eps = stats.DefaultSketchEps
	}
	if cfg.Eps >= 0.5 {
		// Fail at construction, not hours later at the first sketch: an
		// AggAuto run allocates no sketch until its budget cutover.
		panic(fmt.Sprintf("sweep: accumulator sketch eps %g must be < 0.5", cfg.Eps))
	}
	if cfg.SampleBudget <= 0 {
		cfg.SampleBudget = DefaultSampleBudget
	}
	a := &Accumulator{
		mode:     cfg.Mode,
		eps:      cfg.Eps,
		budget:   cfg.SampleBudget,
		sketched: cfg.Mode == AggSketch,
		byName:   make(map[string]int, len(scenarios)),
		seen:     make([]bool, len(scenarios)),
		pending:  make(map[int]*Result),
		index:    make(map[string]int),
	}
	for i, sc := range scenarios {
		a.byName[sc.Name] = i
	}
	return a
}

// Mode returns the accumulator's configured mode.
func (a *Accumulator) Mode() AggMode { return a.mode }

// Sketched reports whether the accumulator currently holds the sketch
// representation (always for AggSketch; for AggAuto, once the sample budget
// was crossed).
func (a *Accumulator) Sketched() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sketched
}

// Pending returns the number of observed results waiting behind the fold
// cursor — instrumentation for tests and progress displays.
func (a *Accumulator) Pending() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.pending)
}

// Next returns the fold cursor: the scenario index whose result the
// accumulator will fold next. Streaming suppliers (the checkpoint resume)
// use it to hand over exactly the result the cursor is waiting for, so
// nothing parks.
func (a *Accumulator) Next() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.next
}

// Observe folds one scenario's result. Results naming a scenario outside
// the accumulator's list, or a scenario already observed, are rejected —
// that is a wiring bug, not data. Safe for concurrent use.
func (a *Accumulator) Observe(r Result) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	i, ok := a.byName[r.Name]
	if !ok {
		return fmt.Errorf("sweep: accumulator: unknown scenario %q", r.Name)
	}
	if a.seen[i] {
		return fmt.Errorf("sweep: accumulator: scenario %q observed twice", r.Name)
	}
	a.seen[i] = true
	if i == a.next {
		a.fold(&r)
		a.next++
		for {
			p, ok := a.pending[a.next]
			if !ok {
				break
			}
			delete(a.pending, a.next)
			a.fold(p)
			a.next++
		}
		return nil
	}
	held := r
	a.pending[i] = &held
	return nil
}

// fold merges one result (the next in scenario order) into its point's
// aggregate. Mirrors Aggregated exactly: skipped results vanish, errors
// count as Failed, successes append/stream their metrics.
func (a *Accumulator) fold(r *Result) {
	if Skipped(*r) {
		return
	}
	key := r.Point.Key()
	i, ok := a.index[key]
	if !ok {
		i = len(a.aggs)
		a.index[key] = i
		agg := Aggregate{Point: r.Point}
		if a.sketched {
			agg.Stats = map[string]stats.Summary{}
			agg.Sketches = map[string]*stats.GKSketch{}
			agg.SeriesSketches = map[string]*stats.GKSketch{}
		} else {
			agg.Series = map[string][]float64{}
			agg.Samples = map[string][]float64{}
		}
		a.aggs = append(a.aggs, agg)
	}
	agg := &a.aggs[i]
	if r.Err != nil {
		agg.Failed++
		return
	}
	agg.Replicas++
	if a.sketched {
		a.foldSketch(agg, r.Metrics)
		return
	}
	for name, v := range r.Metrics.Values {
		agg.Series[name] = append(agg.Series[name], v)
		a.rawValues++
	}
	for name, xs := range r.Metrics.Samples {
		agg.Samples[name] = append(agg.Samples[name], xs...)
		a.rawValues += int64(len(xs))
	}
	if a.mode == AggAuto && a.rawValues > a.budget {
		a.cutover()
	}
}

// foldSketch streams one result's metrics into the bounded representation.
func (a *Accumulator) foldSketch(agg *Aggregate, m Metrics) {
	for name, v := range m.Values {
		s := agg.Stats[name]
		s.Add(v)
		agg.Stats[name] = s
		sk := agg.SeriesSketches[name]
		if sk == nil {
			sk = stats.NewGKSketch(a.eps)
			agg.SeriesSketches[name] = sk
		}
		sk.Add(v)
	}
	for name, xs := range m.Samples {
		sk := agg.Sketches[name]
		if sk == nil {
			sk = stats.NewGKSketch(a.eps)
			agg.Sketches[name] = sk
		}
		for _, x := range xs {
			sk.Add(x)
		}
	}
}

// cutover converts every aggregate from the exact to the sketch
// representation by replaying the pooled history, in pooled (= scenario)
// order, into fresh summaries and sketches — exactly the operations a pure
// AggSketch accumulator would have performed, so the post-cutover state is
// bit-identical to one. The raw slices are released.
func (a *Accumulator) cutover() {
	a.sketched = true
	for i := range a.aggs {
		agg := &a.aggs[i]
		agg.Stats = map[string]stats.Summary{}
		agg.Sketches = map[string]*stats.GKSketch{}
		agg.SeriesSketches = map[string]*stats.GKSketch{}
		for name, vs := range agg.Series {
			var s stats.Summary
			sk := stats.NewGKSketch(a.eps)
			for _, v := range vs {
				s.Add(v)
				sk.Add(v)
			}
			agg.Stats[name] = s
			agg.SeriesSketches[name] = sk
		}
		for name, xs := range agg.Samples {
			sk := stats.NewGKSketch(a.eps)
			for _, x := range xs {
				sk.Add(x)
			}
			agg.Sketches[name] = sk
		}
		agg.Series = nil
		agg.Samples = nil
	}
	a.rawValues = 0
}

// Aggregates returns the folded aggregates, in first-appearance (scenario)
// order — the same order and, in exact mode, the same contents as
// Aggregated over the full result slice. It fails if any scenario has not
// been observed yet: a partial read would silently drop grid points.
func (a *Accumulator) Aggregates() ([]Aggregate, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.next != len(a.seen) {
		return nil, fmt.Errorf("sweep: accumulator: %d of %d scenarios not yet observed",
			len(a.seen)-a.next-len(a.pending), len(a.seen))
	}
	return a.aggs, nil
}
