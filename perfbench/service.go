package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/sweep"
	"repro/internal/sweepd"
)

// spanHeader carries the client-side span of a sweepd request to the
// coordinator's handler, so the server span hangs under it. The
// coordinator ignores unknown headers.
const spanHeader = "X-Perfbench-Span"

// service is the sweep-service workload: an in-process sweepd
// coordinator and workers on httptest loopback draining a grid of
// millisecond-scale chunk scenarios, checkpointing every result.
type service struct {
	grid *chunkGrid
}

// serviceStats is what the benchmark observes of one service pass from
// outside the program: at the worker's HTTP client and around the
// coordinator's handler.
type serviceStats struct {
	mu           sync.Mutex
	leaseReqs    int
	leaseWaits   int
	leaseSubmit  []float64 // seconds from lease grant to accepted submit
	serveLease   []float64 // coordinator handler seconds per /lease
	serveSubmit  []float64 // coordinator handler seconds per /submit
	leases       int64     // coordinator: sweepd_leases_granted
	duplicates   int64     // coordinator: sweepd_records_duplicate
	expired      int64     // coordinator: sweepd_leases_expired
	retries      int64     // workers: sweepd_worker_retries
	workerIdleNS int64     // workers: pass wall minus busy time, summed
}

// servicePass is one set-up coordinator, its server and its grid.
type servicePass struct {
	svc       *service
	scenarios []sweep.Scenario
	cpPath    string
	coord     *sweepd.Coordinator
	coordReg  *obs.Registry
	srv       *httptest.Server
	stats     *serviceStats
}

func (s *service) setup(b *bench, n int) (pass, error) {
	h := b.tracer().start("build", "sweep-service", 0)
	defer h.end(nil)
	scenarios, err := s.grid.scenarios(b)
	if err != nil {
		return nil, err
	}
	cpPath := filepath.Join(b.opts.dir, fmt.Sprintf("sweep-service-%d.jsonl", n))
	if err := os.Remove(cpPath); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	reg := obs.New("coordinator")
	coord, err := sweepd.NewCoordinator(sweepd.Config{
		Label:          s.grid.label(),
		Scenarios:      scenarios,
		CheckpointPath: cpPath,
		Agg:            aggConfig,
		Obs:            reg,
	})
	if err != nil {
		return nil, err
	}
	p := &servicePass{svc: s, scenarios: scenarios, cpPath: cpPath, coord: coord, coordReg: reg, stats: &serviceStats{}}
	p.srv = httptest.NewServer(&serverTimer{b: b, stats: p.stats, next: coord.Handler()})
	return p, nil
}

func (p *servicePass) run(ctx context.Context, b *bench, pr *passResult) ([]byte, time.Duration, error) {
	pr.svc = p.stats
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	n := workers()
	regs := make([]*obs.Registry, n)
	tp := &http.Transport{MaxIdleConnsPerHost: n}
	defer tp.CloseIdleConnections()
	errs := make(chan error, n) // one send per worker
	var wg sync.WaitGroup
	start := time.Now()
	for i := range regs {
		regs[i] = obs.New("worker")
		cl := &leaseClock{b: b, stats: p.stats, base: tp}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs <- sweepd.RunWorker(ctx, sweepd.WorkerConfig{
				Coordinator: p.srv.URL,
				Name:        "w" + strconv.Itoa(i),
				Label:       p.svc.grid.label(),
				Scenarios:   p.scenarios,
				Workers:     1,
				Obs:         regs[i],
				Client:      &http.Client{Transport: cl, Timeout: 30 * time.Second},
			})
		}(i)
	}
	done := make(chan error, 1)
	go func() { done <- p.coord.Wait(ctx) }()
	var runErr error
	select {
	case runErr = <-done:
	case err := <-errs:
		// A worker gave up before the grid completed.
		if err == nil {
			err = <-done
		}
		runErr = err
	}
	if runErr != nil {
		cancel()
		wg.Wait()
		return nil, 0, fmt.Errorf("sweep-service: %w", runErr)
	}
	if err := p.coord.Close(); err != nil {
		return nil, 0, err
	}
	acc := sweep.NewAccumulator(aggConfig, p.scenarios)
	h := b.tracer().start("sweep.aggregate", "", b.passSeq.Load())
	err := p.coord.FoldInto(acc)
	h.end(nil)
	if err != nil {
		return nil, 0, err
	}
	out, err := b.aggregateAndRender(title(p.scenarios), acc)
	wall := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	// The grid is complete: stop workers sleeping in their poll instead of
	// waiting for them to notice.
	cancel()
	wg.Wait()
	for _, r := range regs {
		p.stats.retries += r.Counter("sweepd_worker_retries").Value()
		busy := r.Counter("sweep_busy_ns").Value()
		pr.busyNS += busy
		p.stats.workerIdleNS += wall.Nanoseconds() - busy
	}
	p.stats.leases = p.coordReg.Counter("sweepd_leases_granted").Value()
	p.stats.duplicates = p.coordReg.Counter("sweepd_records_duplicate").Value()
	p.stats.expired = p.coordReg.Counter("sweepd_leases_expired").Value()
	pr.cpRecords, pr.cpBytes, err = checkpointSize(p.cpPath)
	return out, wall, err
}

func (p *servicePass) close() {
	p.srv.Close()
	p.coord.Close() // already closed after a run; the repeat error is moot
	os.Remove(p.cpPath)
}

// crossCheck renders the same grid through an in-process Runner and
// requires the service's bytes to match.
func (s *service) crossCheck(ctx context.Context, b *bench, res *runResult) error {
	scenarios, err := s.grid.scenarios(b)
	if err != nil {
		return err
	}
	acc := sweep.NewAccumulator(aggConfig, scenarios)
	runner := &sweep.Runner{Workers: workers()}
	if _, err := runner.Accumulate(ctx, scenarios, acc); err != nil {
		return err
	}
	aggs, err := acc.Aggregates()
	if err != nil {
		return err
	}
	out, err := render(title(scenarios), aggs)
	if err != nil {
		return err
	}
	if d := digestOf(out); d != res.passes[0].digest {
		res.fail(fmt.Sprintf("service rendering %s differs from in-process Runner rendering %s", res.passes[0].digest, d))
	}
	return nil
}

// leaseClock is a worker's HTTP transport. Each worker drives the lease
// protocol sequentially, so the time from its last granted lease to an
// accepted submit is that lease's turnaround. It also records the
// client-side spans: the request round trips and, between grant and
// submit, the batch the leased scenarios run under.
type leaseClock struct {
	b     *bench
	stats *serviceStats
	base  http.RoundTripper

	mu      sync.Mutex
	granted time.Time
	leaseID string
	batch   spanHandle
}

func (c *leaseClock) RoundTrip(req *http.Request) (*http.Response, error) {
	path := req.URL.Path
	tr := c.b.tracer()
	c.mu.Lock()
	if path == "/submit" {
		c.batch.end(nil)
		c.batch = spanHandle{}
	}
	h := tr.start("sweepd"+strings.ReplaceAll(path, "/", "."), c.leaseID, c.b.passSeq.Load())
	c.mu.Unlock()
	if tr != nil {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.FormatInt(h.seq(), 10))
	}
	resp, err := c.base.RoundTrip(req)
	if err != nil {
		h.end(nil)
		return nil, err
	}
	ok := resp.StatusCode/100 == 2
	switch {
	case path == "/lease" && ok:
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(body))
		var lr sweepd.LeaseResponse
		if rerr != nil || json.Unmarshal(body, &lr) != nil {
			break
		}
		c.stats.mu.Lock()
		c.stats.leaseReqs++
		if lr.Wait {
			c.stats.leaseWaits++
		}
		c.stats.mu.Unlock()
		if len(lr.Scenarios) == 0 {
			break
		}
		c.mu.Lock()
		c.granted, c.leaseID = time.Now(), lr.LeaseID
		h.s.ID = lr.LeaseID
		if tr != nil {
			c.batch = tr.start("sweepd.batch", lr.LeaseID, c.b.passSeq.Load())
			for _, name := range lr.Scenarios {
				c.b.parents.Store(name, c.batch.seq())
			}
		}
		c.mu.Unlock()
	case path == "/submit" && ok:
		c.mu.Lock()
		turnaround := time.Since(c.granted)
		c.mu.Unlock()
		c.stats.mu.Lock()
		c.stats.leaseSubmit = append(c.stats.leaseSubmit, turnaround.Seconds())
		c.stats.mu.Unlock()
	}
	h.end(nil)
	return resp, nil
}

// serverTimer times the coordinator's handler per endpoint and, when
// tracing, records a server span under the client's.
type serverTimer struct {
	b     *bench
	stats *serviceStats
	next  http.Handler
}

func (t *serverTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
	h := t.b.tracer().start("sweepd.serve", r.URL.Path, parent)
	start := time.Now()
	t.next.ServeHTTP(w, r)
	d := time.Since(start).Seconds()
	h.end(nil)
	t.stats.mu.Lock()
	switch r.URL.Path {
	case "/lease":
		t.stats.serveLease = append(t.stats.serveLease, d)
	case "/submit":
		t.stats.serveSubmit = append(t.stats.serveSubmit, d)
	}
	t.stats.mu.Unlock()
}
