package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/chunknet"
	"repro/internal/flowsim"
	"repro/internal/obs"
	"repro/internal/sweep"
	"repro/internal/topo"
	"repro/internal/units"
)

// defaultSeed is the seed whose rendered output digest is recorded.
const defaultSeed = 1

// digests holds the SHA-256 of the rendered Table+CSV+JSON output of
// each workload at the default seed, per size. A change that alters any
// output byte must re-record them deliberately.
var digests = map[string]string{
	"flow-pool/full":     "c46e8947d2c6366547610c690d0d94795e410da26fbd4e09acc6ac1666a8f91d",
	"flow-pool/tiny":     "4893c75357fce22e5f824d70a8e55382d2c68bfcbbe8e9c4bc3a20218c2691da",
	"chunk-fanin/full":   "e3d60808abdb1ef3456fd74e65a90d96790c151768f3412b3855d02b23625685",
	"chunk-fanin/tiny":   "56cd93e725a88f8d9622cd0326f66e83be9e6d1a7ba649dfdae3418eacda36e7",
	"sweep-service/full": "00cb6d7cf1830169d97eb7036290ed9705b3bd0b089da235be0dcdf15d2ac663",
	"sweep-service/tiny": "9133ffa19dceb2930f349749b1b564e5ba654849b1f817c646554da8fc7a2094",
}

// newWorkload returns the named workload at the given size.
func newWorkload(name, size string) (workload, error) {
	tiny := size == "tiny"
	if size != "full" && !tiny {
		return nil, fmt.Errorf("unknown size %q (known: full, tiny)", size)
	}
	switch name {
	case "flow-pool":
		w := &flowPool{
			isp: topo.Exodus, flows: 10000, replicas: 3,
			lambda: 10000, size: 500 * units.KB,
			demand: 100 * units.Mbps, capacity: 150 * units.Mbps,
			horizon: 8 * time.Second,
		}
		if tiny {
			w.flows, w.replicas = 400, 1
		}
		return w, nil
	case "chunk-fanin":
		w := &chunkGrid{
			transports: []string{"inrpp", "aimd", "arc"},
			transfers:  []string{"4", "32"},
			losses:     []string{"0", "0.01"},
			detour:     1 * units.Gbps,
			ingress:    10 * units.Gbps, egress: 2 * units.Gbps,
			chunkSize: 10 * units.KB, chunks: 20000,
			horizon: 1500 * time.Millisecond, replicas: 4,
		}
		if tiny {
			w.chunks, w.horizon, w.replicas = 300, 100*time.Millisecond, 1
		}
		return w, nil
	case "sweep-service":
		g := &chunkGrid{
			transports: []string{"inrpp", "aimd", "arc"},
			transfers:  []string{"1", "2", "4", "8"},
			ingress:    10 * units.Gbps, egress: 2 * units.Gbps,
			chunkSize: 10 * units.KB, chunks: 20,
			horizon: 100 * time.Millisecond, replicas: 150,
		}
		if tiny {
			g.chunks, g.replicas = 10, 4
		}
		return &service{grid: g}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (known: flow-pool, chunk-fanin, sweep-service)", name)
}

// flowPool is the flowsim grid: one ISP, SP vs INRP, under moderate
// congestion, exactly as `cmd/sweep -mode flow` expands it.
type flowPool struct {
	isp              topo.ISP
	flows, replicas  int
	lambda           float64
	size             units.ByteSize
	demand, capacity units.BitRate
	horizon          time.Duration
}

func (w *flowPool) label() string {
	return fmt.Sprintf("flow capacity=%s demand=%s size=%s lambda=%g horizon=%s",
		w.capacity, w.demand, w.size, w.lambda, w.horizon)
}

func (w *flowPool) scenarios(b *bench) ([]sweep.Scenario, error) {
	// cmd/sweep builds each topology once to validate the -isps list.
	if _, err := topo.BuildISP(w.isp); err != nil {
		return nil, err
	}
	grid := sweep.NewGrid().
		Axis("isp", string(w.isp)).
		Axis("flows", strconv.Itoa(w.flows)).
		Axis("policy", "sp", "inrp").
		SeedAxes("isp", "flows")
	return grid.Expand(b.opts.seed, w.replicas, func(pt sweep.Point, replica int, seed int64) sweep.RunFunc {
		spec := sweep.FlowSpec{
			ISP:       w.isp,
			Capacity:  w.capacity,
			Policy:    sweep.MustParsePolicy(pt.Get("policy")),
			Flows:     w.flows,
			Lambda:    w.lambda,
			MeanSize:  w.size,
			DemandCap: w.demand,
			Horizon:   w.horizon,
		}
		name := sweep.ScenarioName(pt, replica)
		return b.wrap(name, scenarioBody{
			run: func(ctx context.Context, reg *obs.Registry) (sweep.Metrics, error) {
				s := spec
				s.Obs = reg
				return s.Run(seed)(ctx)
			},
			traced: tracedRun("flowsim", name, func(reg *obs.Registry) (*flowsim.Result, error) {
				s := spec
				s.Obs = reg
				return s.Simulate(seed)
			}, sweep.FlowMetrics),
			check: func(m sweep.Metrics, count func(string) int64) []string {
				return checkFlow(m, count, w.flows)
			},
		})
	}), nil
}

func (w *flowPool) setup(b *bench, n int) (pass, error) {
	return setupLocal(b, n, "flow-pool", w.label(), w.scenarios)
}

// chunkGrid is a chunknet grid on the custody chain, exactly as
// `cmd/sweep -mode chunk` expands it (with -detour-rate and -loss when
// set).
type chunkGrid struct {
	transports, transfers, losses []string
	detour, ingress, egress       units.BitRate
	chunkSize                     units.ByteSize
	chunks                        int64
	horizon                       time.Duration
	replicas                      int
}

const (
	anticipation = "4096"
	custody      = "10GB"
	buffer       = 25 * units.MB
)

func (w *chunkGrid) label() string {
	l := fmt.Sprintf("chunk ingress=%s egress=%s chunksize=%s chunks=%d buffer=%s horizon=%s",
		w.ingress, w.egress, w.chunkSize, w.chunks, buffer, w.horizon)
	if w.detour > 0 {
		l += fmt.Sprintf(" detour=%s", w.detour)
	}
	return l
}

func (w *chunkGrid) scenarios(b *bench) ([]sweep.Scenario, error) {
	grid := sweep.NewGrid().
		Axis("transport", w.transports...).
		Axis("ac", anticipation).
		Axis("custody", custody).
		Axis("transfers", w.transfers...)
	seedAxes := []string{"transfers"}
	if len(w.losses) > 0 {
		grid.Axis("loss", w.losses...)
		seedAxes = append(seedAxes, "loss")
	}
	grid.SeedAxes(seedAxes...)
	ac, _ := strconv.ParseInt(anticipation, 10, 64)
	cust, err := units.ParseByteSize(custody)
	if err != nil {
		return nil, err
	}
	return grid.Expand(b.opts.seed, w.replicas, func(pt sweep.Point, replica int, seed int64) sweep.RunFunc {
		transfers, _ := strconv.Atoi(pt.Get("transfers"))
		loss, _ := strconv.ParseFloat(pt.Get("loss"), 64)
		spec := sweep.ChunkSpec{
			Transport:    sweep.MustParseTransport(pt.Get("transport")),
			IngressRate:  w.ingress,
			EgressRate:   w.egress,
			ChunkSize:    w.chunkSize,
			Anticipation: ac,
			Custody:      cust,
			Buffer:       buffer,
			Transfers:    transfers,
			Chunks:       w.chunks,
			Horizon:      w.horizon,
			DetourRate:   w.detour,
			Loss:         loss,
		}
		name := sweep.ScenarioName(pt, replica)
		return b.wrap(name, scenarioBody{
			run: func(ctx context.Context, reg *obs.Registry) (sweep.Metrics, error) {
				s := spec
				s.Obs = reg
				return s.Run(seed)(ctx)
			},
			traced: tracedRun("chunknet", name, func(reg *obs.Registry) (*chunknet.Report, error) {
				s := spec
				s.Obs = reg
				return s.Simulate(seed)
			}, func(rep *chunknet.Report) sweep.Metrics { return sweep.ChunkMetrics(rep, spec) }),
			check: func(m sweep.Metrics, count func(string) int64) []string {
				return checkChunk(m, count, transfers, w.chunks)
			},
		})
	}), nil
}

func (w *chunkGrid) setup(b *bench, n int) (pass, error) {
	return setupLocal(b, n, "chunk-fanin", w.label(), w.scenarios)
}

// localPass runs a grid in process: Runner.Accumulate with a checkpoint,
// then Aggregates and render — cmd/sweep's single-host path.
type localPass struct {
	scenarios []sweep.Scenario
	cp        *sweep.Checkpoint
	cpPath    string
	reg       *obs.Registry
}

// setupLocal builds the grid and opens the pass's checkpoint.
func setupLocal(b *bench, n int, name, label string, build func(*bench) ([]sweep.Scenario, error)) (pass, error) {
	h := b.tracer().start("build", name, 0)
	scenarios, err := build(b)
	h.end(nil)
	if err != nil {
		return nil, err
	}
	cpPath := filepath.Join(b.opts.dir, fmt.Sprintf("%s-%d.jsonl", name, n))
	if err := os.Remove(cpPath); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	cp, err := sweep.NewCheckpoint(cpPath, label)
	if err != nil {
		return nil, err
	}
	return &localPass{scenarios: scenarios, cp: cp, cpPath: cpPath, reg: obs.New("runner")}, nil
}

func (p *localPass) run(ctx context.Context, b *bench, pr *passResult) ([]byte, time.Duration, error) {
	runner := &sweep.Runner{Workers: workers(), Obs: p.reg}
	acc := sweep.NewAccumulator(aggConfig, p.scenarios)
	pending := func(int, int, sweep.Result) {
		if n := int64(acc.Pending()); n > pr.pendingMax.Load() {
			pr.pendingMax.Store(n) // Progress calls are serialised by the runner
		}
	}
	if tr := b.tracer(); tr != nil {
		runner.Progress = func(done, total int, r sweep.Result) {
			h := tr.start("checkpoint", r.Name, b.passSeq.Load())
			p.cp.Record(r) //nolint:errcheck — surfaced by Close, as cmd/sweep does
			h.end(nil)
			pending(done, total, r)
		}
	} else {
		runner.Progress = p.cp.Progress(pending)
	}
	start := time.Now()
	if _, err := runner.Accumulate(ctx, p.scenarios, acc); err != nil {
		return nil, 0, err
	}
	if err := p.cp.Close(); err != nil {
		return nil, 0, err
	}
	out, err := b.aggregateAndRender(title(p.scenarios), acc)
	wall := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	pr.busyNS = p.reg.Counter("sweep_busy_ns").Value()
	pr.cpRecords, pr.cpBytes, err = checkpointSize(p.cpPath)
	return out, wall, err
}

func (p *localPass) close() {
	p.cp.Close() // already closed after a run; the repeat error is moot
	os.Remove(p.cpPath)
}

// title is the table heading, in cmd/sweep's shape.
func title(scenarios []sweep.Scenario) string {
	points := map[string]bool{}
	for _, sc := range scenarios {
		points[sc.Point.Key()] = true
	}
	return fmt.Sprintf("Scenario sweep — %d scenarios, %d points", len(scenarios), len(points))
}

// checkpointSize returns a checkpoint file's record count (lines after
// the header) and size.
func checkpointSize(path string) (int, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	lines := 0
	for _, c := range data {
		if c == '\n' {
			lines++
		}
	}
	return lines - 1, int64(len(data)), nil
}

// checkFlow returns a flow scenario's invariant violations.
func checkFlow(m sweep.Metrics, count func(string) int64, flows int) []string {
	var bad []string
	v := m.Values
	if j := v["jain"]; j < 0 || j > 1 {
		bad = append(bad, fmt.Sprintf("jain %g outside [0,1]", j))
	}
	if v["completed"] > float64(flows) {
		bad = append(bad, fmt.Sprintf("completed %g > %d flows", v["completed"], flows))
	}
	for _, k := range []string{"demand_satisfied", "goodput_ratio", "utilization"} {
		if x := v[k]; x < 0 || x > 1+1e-9 {
			bad = append(bad, fmt.Sprintf("%s %g outside [0,1]", k, x))
		}
	}
	admitted, finished := count("flowsim_flows_admitted"), count("flowsim_flows_finished")
	if finished > admitted || admitted > int64(flows) {
		bad = append(bad, fmt.Sprintf("finished %d, admitted %d, offered %d", finished, admitted, flows))
	}
	return bad
}

// checkChunk returns a chunk scenario's invariant violations.
func checkChunk(m sweep.Metrics, count func(string) int64, transfers int, chunks int64) []string {
	var bad []string
	v := m.Values
	offered := float64(int64(transfers) * chunks)
	if v["delivered"] > offered {
		bad = append(bad, fmt.Sprintf("delivered %g > offered %g", v["delivered"], offered))
	}
	if v["completed"] > float64(transfers) {
		bad = append(bad, fmt.Sprintf("completed %g > %d transfers", v["completed"], transfers))
	}
	sent, delivered := count("chunknet_chunks_sent"), count("chunknet_chunks_delivered")
	if int64(v["delivered"]) > sent || delivered > sent {
		bad = append(bad, fmt.Sprintf("delivered %g (counter %d) > sent %d", v["delivered"], delivered, sent))
	}
	return bad
}
