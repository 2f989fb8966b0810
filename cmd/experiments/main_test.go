package main

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// bin is the experiments binary, built once by TestMain.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "experiments-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "experiments")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// runExperiments executes the binary and returns its stdout, failing the
// test on a non-zero exit.
func runExperiments(t *testing.T, args ...string) string {
	t.Helper()
	var out, errb bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		t.Fatalf("experiments %s: %v\nstderr:\n%s", strings.Join(args, " "), err, errb.String())
	}
	return out.String()
}

// TestTable1MatchesInProcess: -run table1 prints exactly the in-process
// Table 1 report followed by the calibration line.
func TestTable1MatchesInProcess(t *testing.T) {
	rows, err := experiments.Table1()
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := experiments.Table1Report(rows).Render(&want); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&want, "\nmax per-class calibration error: %.2f%%\n\n", 100*experiments.MaxAbsError(rows))

	if got := runExperiments(t, "-run", "table1"); got != want.String() {
		t.Errorf("-run table1 stdout differs from the in-process report:\ngot:\n%s\nwant:\n%s", got, want.String())
	}
}

// TestTable1CSV: under -format csv stdout is one CSV table — a header,
// the nine ISP rows and the Average row.
func TestTable1CSV(t *testing.T) {
	recs, err := csv.NewReader(strings.NewReader(runExperiments(t, "-run", "table1", "-format", "csv"))).ReadAll()
	if err != nil {
		t.Fatalf("stdout is not CSV: %v", err)
	}
	if len(recs) != 11 {
		t.Fatalf("got %d CSV records, want header + 9 ISPs + Average", len(recs))
	}
	if recs[0][0] != "ISP" || recs[10][0] != "Average" {
		t.Errorf("first column = %q … %q, want ISP … Average", recs[0][0], recs[10][0])
	}
}

// TestFig3JainRow: -run fig3 reports INRPP's Jain index at the paper's 1.
func TestFig3JainRow(t *testing.T) {
	out := runExperiments(t, "-run", "fig3")
	if !regexp.MustCompile(`(?m)^INRPP Jain index\s+1\s+1\s+\+0\s*$`).MatchString(out) {
		t.Errorf("no INRPP Jain = 1 row in:\n%s", out)
	}
}

// TestRejectsUnknownValues: bad -run and -format values fail when the
// flags are parsed, naming the known values.
func TestRejectsUnknownValues(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-run", "bogus"}, `unknown -run "bogus" (known: all, table1, fig4a, fig4b, fig3, custody, disruption, failover)`},
		{[]string{"-run", "fig3", "-format", "xml"}, `unknown -format "xml" (known: table, csv)`},
	} {
		var out, errb bytes.Buffer
		cmd := exec.Command(bin, tc.args...)
		cmd.Stdout = &out
		cmd.Stderr = &errb
		if err := cmd.Run(); err == nil {
			t.Errorf("%s: exit 0, want failure", strings.Join(tc.args, " "))
		}
		if !strings.Contains(errb.String(), tc.want) {
			t.Errorf("%s: stderr %q missing %q", strings.Join(tc.args, " "), errb.String(), tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("%s: printed to stdout before failing:\n%s", strings.Join(tc.args, " "), out.String())
		}
	}
}
