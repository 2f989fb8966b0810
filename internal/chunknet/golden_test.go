package chunknet

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/topo"
)

// The report golden pins the %+v of the whole Report for each
// transport on three small scenarios, so any change to forwarding,
// custody, detours or the endpoint loops shows as a byte diff. Regenerate
// (only when behaviour changes on purpose) with:
//
//	go test ./internal/chunknet -run TestGoldenReports -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite the chunknet report golden")

// goldenScenarios are the report golden's inputs: a clean bottleneck
// chain with two staggered transfers, the same chain with a 2%-lossy
// egress, and the failure diamond's egress blackout under reroute.
var goldenScenarios = []struct {
	name      string
	cfg       func(tr Transport) Config
	transfers int
	horizon   time.Duration
}{
	{"clean-chain", func(tr Transport) Config {
		return churnConfig(churnChain(topo.OutageSpec{}), tr, 1)
	}, 2, 10 * time.Second},
	{"lossy-egress", func(tr Transport) Config {
		g := churnChain(topo.OutageSpec{})
		g.SetLinkLoss(1, 0.02)
		return churnConfig(g, tr, 1)
	}, 1, 10 * time.Second},
	{"diamond-blackout-reroute", func(tr Transport) Config {
		return blackoutConfig(tr, FailoverReroute, 1)
	}, 1, 20 * time.Second},
}

func TestGoldenReports(t *testing.T) {
	var buf bytes.Buffer
	for _, sc := range goldenScenarios {
		for _, tr := range []Transport{INRPP, AIMD, ARC} {
			s, err := New(sc.cfg(tr))
			if err != nil {
				t.Fatal(err)
			}
			for id := 1; id <= sc.transfers; id++ {
				xfer := Transfer{ID: id, Src: 0, Dst: 2, Chunks: 300, Start: time.Duration(id-1) * 100 * time.Millisecond}
				if err := s.AddTransfer(xfer); err != nil {
					t.Fatal(err)
				}
			}
			rep := s.Run(sc.horizon)
			// %+v rounds the two fields with String methods; the second
			// line pins them exactly.
			fmt.Fprintf(&buf, "%s/%s\n%+v\nCustodyPeak=%d CustodyResidency=%#v\n",
				sc.name, tr, *rep, int64(rep.CustodyPeak), rep.CustodyResidency)
		}
	}
	path := filepath.Join("testdata", "golden_reports.txt")
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture %s (regenerate with -update-golden): %v", path, err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("reports differ from %s\ngot:\n%s\nwant:\n%s", path, buf.Bytes(), want)
	}
}
