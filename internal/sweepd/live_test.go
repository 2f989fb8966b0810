package sweepd

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sweep"
)

// The live-view fixtures pin the exact response bytes of GET /aggregate
// and GET /percentile on a partly complete grid. Regenerate (only when
// the response format changes on purpose) with:
//
//	go test ./internal/sweepd -run TestLiveViews -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite live-view response fixtures")

// partialCoordinator builds a coordinator over a 4-point × 5-replica grid
// and completes part of it: every replica of p00, the odd replicas of
// p01, nothing of p02, and p03 with replica 0 failed and the rest done.
func partialCoordinator(t *testing.T, agg sweep.AccumulatorConfig) *Coordinator {
	t.Helper()
	scenarios := testScenarios(4, 5)
	c, _ := newTestCoordinator(t, scenarios, nil, Config{Agg: agg})
	req := SubmitRequest{Worker: "w", Label: testLabel}
	for _, sc := range scenarios {
		switch k := sc.Point.Get("k"); {
		case k == "p00", k == "p01" && sc.Replica%2 == 1, k == "p03" && sc.Replica > 0:
			req.Records = append(req.Records, record(t, sc))
		case k == "p03":
			req.Failed = append(req.Failed, ScenarioFailure{Name: sc.Name, Seed: sc.Seed, Error: "injected"})
		}
	}
	if _, status, err := c.Submit(req); err != nil || status != http.StatusOK {
		t.Fatalf("submit: status %d, err %v", status, err)
	}
	return c
}

// get serves one GET request through the coordinator's mux.
func get(c *Coordinator, target string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	return rec
}

// liveViews concatenates the live endpoints' responses: the aggregate
// table, percentiles over a pooled sample set ("s") and over a metric
// that exists only as a per-replica series ("x").
func liveViews(t *testing.T, c *Coordinator) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, target := range []string{
		"/aggregate",
		"/percentile?metric=s",
		"/percentile?metric=s&p=90",
		"/percentile?metric=x&p=25",
		"/percentile?metric=y&p=100",
	} {
		rec := get(c, target)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", target, rec.Code, rec.Body)
		}
		fmt.Fprintf(&buf, "GET %s\n%s", target, rec.Body.Bytes())
	}
	return buf.Bytes()
}

func checkLiveGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture %s (regenerate with -update-golden): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: live responses differ from fixture\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// TestLiveViews pins /aggregate and /percentile on a partly complete grid
// in exact and sketch mode. Sketch eps is coarse so the sketch answers
// visibly differ from exact interpolation.
func TestLiveViews(t *testing.T) {
	exact := liveViews(t, partialCoordinator(t, sweep.AccumulatorConfig{Mode: sweep.AggExact}))
	checkLiveGolden(t, "live_exact.txt", exact)
	sketch := liveViews(t, partialCoordinator(t, sweep.AccumulatorConfig{Mode: sweep.AggSketch, Eps: 0.2}))
	checkLiveGolden(t, "live_sketch.txt", sketch)
	if bytes.Equal(exact, sketch) {
		t.Error("sketch-mode percentiles equal exact ones; the fixture does not exercise the sketch")
	}
}

// TestLiveViewsAutoMode: an auto-mode coordinator answers like exact mode
// below its sample budget, and like sketch mode — the representation its
// final fold will hold — once the done results cross it.
func TestLiveViewsAutoMode(t *testing.T) {
	for _, tc := range []struct {
		budget int64
		like   sweep.AccumulatorConfig
	}{
		{0, sweep.AccumulatorConfig{Mode: sweep.AggExact}},
		{8, sweep.AccumulatorConfig{Mode: sweep.AggSketch, Eps: 0.2}},
	} {
		auto := sweep.AccumulatorConfig{Mode: sweep.AggAuto, Eps: 0.2, SampleBudget: tc.budget}
		got := liveViews(t, partialCoordinator(t, auto))
		if want := liveViews(t, partialCoordinator(t, tc.like)); !bytes.Equal(got, want) {
			t.Errorf("auto budget=%d answers unlike %s mode:\n%s\n--- vs ---\n%s", tc.budget, tc.like.Mode, got, want)
		}
	}
}

// TestLiveViewsRejectBadQueries: a missing metric and an unusable
// percentile are client errors. NaN passes a p < 0 || p > 100 range check
// (every comparison with NaN is false), so it needs its own rejection. A
// sketch eps no live query could build an accumulator for fails at
// construction.
func TestLiveViewsRejectBadQueries(t *testing.T) {
	if _, err := NewCoordinator(Config{Label: testLabel, Scenarios: testScenarios(1, 1),
		CheckpointPath: filepath.Join(t.TempDir(), "eps.jsonl"), Agg: sweep.AccumulatorConfig{Eps: 0.5}}); err == nil {
		t.Error("NewCoordinator accepted sketch eps 0.5")
	}
	c := partialCoordinator(t, sweep.AccumulatorConfig{})
	for _, target := range []string{
		"/percentile",
		"/percentile?p=50",
		"/percentile?metric=s&p=abc",
		"/percentile?metric=s&p=-1",
		"/percentile?metric=s&p=100.5",
		"/percentile?metric=s&p=NaN",
		"/percentile?metric=s&p=Inf",
		"/percentile?metric=s&p=-Inf",
	} {
		if rec := get(c, target); rec.Code != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400: %s", target, rec.Code, rec.Body)
		}
	}
}
