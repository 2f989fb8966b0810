package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var workloadNames = []string{"flow-pool", "chunk-fanin", "sweep-service"}

// benchmarkSpec is the part of BENCHMARK.json the tests compare against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runTiny runs the command on a tiny grid and decodes its last line.
func runTiny(t *testing.T, workload, seed, trace string) (resultLine, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", seed, "--seconds", "0.2",
		"--trace", trace, "--size", "tiny", "--out", t.TempDir()}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("%s exit %d: %s", workload, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v", workload, err)
	}
	return res, stdout.String()
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames)
	}
}

// TestTinyRunPrintsEveryMetric runs every workload at tiny size, untraced
// and traced, and requires exactly the metrics BENCHMARK.json names,
// each with its unit, and passing output checks.
func TestTinyRunPrintsEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range workloadNames {
		for trace, want := range map[string][]struct{ Name, Unit string }{"0": spec.EndToEnd, "1": spec.PerLayer} {
			res, out := runTiny(t, w, "1", trace)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v failed=%d attempted=%d\n%s", w, trace, res.Correct, res.Failed, res.Attempted, out)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, BENCHMARK.json names %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%s: metric %s missing", w, trace, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s trace=%s: %s unit %q, BENCHMARK.json says %q", w, trace, m.Name, got.Unit, m.Unit)
				}
				if trace == "0" && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w, m.Name, got.Value)
				}
			}
		}
	}
}

// TestSecondSeedChangesInputs checks that another seed renders other
// bytes (its inputs changed) and still passes every output check.
func TestSecondSeedChangesInputs(t *testing.T) {
	for _, name := range workloadNames {
		w, err := newWorkload(name, "tiny")
		if err != nil {
			t.Fatal(err)
		}
		res, err := execute(context.Background(), options{workload: name, seed: 2, seconds: 0.1, size: "tiny", dir: t.TempDir()}, w)
		if err != nil {
			t.Fatal(err)
		}
		if res.failed != 0 {
			t.Errorf("%s seed 2: %d failed checks: %v", name, res.failed, res.notes)
		}
		if d := res.passes[0].digest; d == digests[name+"/tiny"] {
			t.Errorf("%s: seed 2 renders the seed-1 bytes; the seed does not reach the inputs", name)
		}
	}
}

// TestBucketsSumToTotal profiles a traced run and checks that every
// sample lands in exactly one known bucket, so the buckets sum to the
// total.
func TestBucketsSumToTotal(t *testing.T) {
	w, err := newWorkload("chunk-fanin", "tiny")
	if err != nil {
		t.Fatal(err)
	}
	res, err := execute(context.Background(), options{workload: "chunk-fanin", seed: 1, seconds: 0.5, trace: true, size: "tiny", dir: t.TempDir()}, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.profile) == 0 {
		t.Fatal("traced run recorded no profile samples")
	}
	known := map[string]bool{}
	for _, b := range buckets {
		known[b] = true
	}
	for _, s := range res.profile {
		if b := classify(s.Stack); !known[b] {
			t.Fatalf("sample charged to unknown bucket %q", b)
		}
	}
	byBucket, total := bucketize(res.profile)
	var sum int64
	for b, ns := range byBucket {
		if !known[b] {
			t.Errorf("bucket %q not in the bucket list", b)
		}
		sum += ns
	}
	if sum != total || total <= 0 {
		t.Fatalf("buckets sum to %d ns, profile total %d ns", sum, total)
	}
	if byBucket[bucketDES] == 0 {
		t.Errorf("chunk-fanin profile charged nothing to des: %v", byBucket)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		stack []frame
		want  string
	}{
		{[]frame{{Func: "encoding/json.Marshal"}, {Func: "repro/internal/sweep.(*Checkpoint).Record", File: "/x/internal/sweep/checkpoint.go"}}, bucketCheckpoint},
		{[]frame{{Func: "runtime.mallocgc"}, {Func: "repro/internal/flowsim.(*runner).classFill", File: "/x/internal/flowsim/classes.go"}}, bucketFlowAlloc},
		{[]frame{{Func: "repro/internal/flowsim.(*runner).run", File: "/x/internal/flowsim/flowsim.go"}}, bucketFlowLoop},
		{[]frame{{Func: "repro/internal/core.(*Planner).Plan"}, {Func: "repro/internal/chunknet.(*Sim).pickDetour"}}, bucketPlanner},
		{[]frame{{Func: "syscall.Syscall"}, {Func: "net.(*conn).Write"}, {Func: "net/http.(*persistConn).writeLoop"}}, bucketSweepd},
		{[]frame{{Func: "runtime.scanobject"}, {Func: "runtime.gcDrain"}, {Func: "runtime.gcBgMarkWorker"}}, bucketGC},
		{[]frame{{Func: "runtime.futex"}, {Func: "runtime.findRunnable"}, {Func: "runtime.schedule"}}, bucketSched},
		{[]frame{{Func: "runtime.memmove"}}, bucketOther},
	}
	for _, c := range cases {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "pass", Seq: 1, StartNS: 0, EndNS: 100},
		{Name: "scenario", Seq: 2, Parent: 1, StartNS: 10, EndNS: 40},
		{Name: "scenario", Seq: 3, Parent: 1, StartNS: 30, EndNS: 60},
		{Name: "render", Seq: 4, Parent: 1, StartNS: 90, EndNS: 120},
		{Name: "sim", Seq: 5, Parent: 2, StartNS: 15, EndNS: 35},
	}
	rows := selfTimes(spans)
	want := map[string]int64{"pass": 100 - 60, "scenario": 30 - 20 + 30, "render": 30, "sim": 20}
	for name, self := range want {
		if got := selfTime(rows, name).Nanoseconds(); got != self {
			t.Errorf("self(%s) = %d, want %d", name, got, self)
		}
	}

	path := filepath.Join(t.TempDir(), "s.spans.jsonl")
	if err := writeSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"spans", path}, &out, &errOut); code != 0 {
		t.Fatalf("spans exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "scenario") || !strings.Contains(out.String(), "self_s") {
		t.Errorf("spans table missing rows:\n%s", out.String())
	}
}

func TestTailLevel(t *testing.T) {
	for n, want := range map[int]float64{6: 100, 19: 100, 20: 50, 48: 75, 100: 90, 225: 95, 1800: 99, 10000: 99.9} {
		if got := tailLevel(n); got != want {
			t.Errorf("tailLevel(%d) = %g, want %g", n, got, want)
		}
	}
}
