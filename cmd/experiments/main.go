// Command experiments regenerates every table and figure of the paper,
// printing paper-vs-measured values.
//
// Usage:
//
//	experiments [-run all|table1|fig4a|fig4b|fig3|custody|disruption|failover]
//	            [-seeds N] [-horizon 15s] [-format table|csv] [-quick]
//
// Unknown -run or -format values exit non-zero with the known list.
// Under -format csv only the tables go to stdout; progress and
// calibration lines go to stderr.
//
// disruption — the link-churn experiment (completion time vs outage rate
// per transport) — runs only when named: its default scale sweeps 12 grid
// cells × seeds at a 60s horizon. -quick shrinks it to seconds.
//
// failover — the recovery-strategy frontier (failure profile ×
// correlation × custody × strategy on the custody diamond) — also runs
// only when named. -quick drops the both strategy and the custody axis,
// keeping the two frontier halves.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/chunknet"
	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/topo"
	"repro/internal/units"
)

// runs and formats are the accepted -run and -format values.
var (
	runs    = []string{"all", "table1", "fig4a", "fig4b", "fig3", "custody", "disruption", "failover"}
	formats = []string{"table", "csv"}
)

func main() {
	run := flag.String("run", "all", "experiment to run: all|table1|fig4a|fig4b|fig3|custody|disruption|failover (disruption and failover only when named)")
	seeds := flag.Int("seeds", 3, "workload seeds for fig4")
	horizon := flag.Duration("horizon", 15*time.Second, "virtual horizon per fig4 run")
	format := flag.String("format", "table", "output format: table|csv")
	quick := flag.Bool("quick", false, "reduced fig4/custody scale for a fast pass")
	flag.Parse()
	if !slices.Contains(runs, *run) {
		fatal(fmt.Errorf("unknown -run %q (known: %s)", *run, strings.Join(runs, ", ")))
	}
	if !slices.Contains(formats, *format) {
		fatal(fmt.Errorf("unknown -format %q (known: %s)", *format, strings.Join(formats, ", ")))
	}

	// Prose around the tables (progress, calibration, CDF points) goes to
	// stderr under -format csv, so stdout stays parseable CSV.
	notes := os.Stdout
	if *format == "csv" {
		notes = os.Stderr
	}
	emit := func(t *report.Table) {
		var err error
		if *format == "csv" {
			err = t.RenderCSV(os.Stdout)
		} else {
			err = t.Render(os.Stdout)
			fmt.Println()
		}
		if err != nil {
			fatal(err)
		}
	}

	wantFig4 := *run == "all" || *run == "fig4a" || *run == "fig4b"

	if *run == "all" || *run == "table1" {
		rows, err := experiments.Table1()
		if err != nil {
			fatal(err)
		}
		emit(experiments.Table1Report(rows))
		fmt.Fprintf(notes, "max per-class calibration error: %.2f%%\n\n", 100*experiments.MaxAbsError(rows))
	}

	if wantFig4 {
		cfg := experiments.DefaultFig4Config()
		cfg.Seeds = *seeds
		cfg.Horizon = *horizon
		if *quick {
			cfg.ISPs = []topo.ISP{topo.Exodus}
			cfg.TargetActive = 120
			cfg.Horizon = 8 * time.Second
			cfg.Seeds = 1
		}
		fmt.Fprintln(notes, "running fig4 (this sweeps 3 policies × seeds × topologies)...")
		res, err := experiments.Fig4(cfg)
		if err != nil {
			fatal(err)
		}
		if *run == "all" || *run == "fig4a" {
			emit(experiments.Fig4aReport(res))
		}
		if *run == "all" || *run == "fig4b" {
			emit(experiments.Fig4bReport(res))
			for _, r := range res {
				fmt.Fprintf(notes, "# CDF points — %s\n", r.ISP)
				for _, p := range experiments.Fig4bCurve(r, 12) {
					fmt.Fprintf(notes, "  stretch=%.3f F=%.3f\n", p.X, p.F)
				}
			}
			fmt.Fprintln(notes)
		}
	}

	if *run == "all" || *run == "fig3" {
		r, err := experiments.Fig3()
		if err != nil {
			fatal(err)
		}
		emit(experiments.Fig3Report(r))
	}

	if *run == "all" || *run == "custody" {
		cfg := experiments.CustodyConfig{}
		if *quick {
			cfg = experiments.CustodyConfig{
				IngressRate: 4 * units.Gbps,
				EgressRate:  200 * units.Mbps,
				Custody:     units.GB,
				Buffer:      2 * units.MB,
				ChunkSize:   units.MB,
				Chunks:      600,
				Horizon:     4 * time.Second,
			}
		}
		r, err := experiments.Custody(cfg)
		if err != nil {
			fatal(err)
		}
		emit(experiments.CustodyReport(r))
	}

	if *run == "disruption" {
		cfg := experiments.DisruptionConfig{Seeds: *seeds}
		if *quick {
			cfg = experiments.DisruptionConfig{
				IngressRate: units.Gbps,
				EgressRate:  200 * units.Mbps,
				Custody:     50 * units.MB,
				Buffer:      2 * units.MB,
				ChunkSize:   100 * units.KB,
				Chunks:      200,
				Horizon:     2 * time.Second,
				OutageUps: []time.Duration{
					800 * time.Millisecond, 400 * time.Millisecond, 150 * time.Millisecond,
				},
				OutageDown: 100 * time.Millisecond,
				Seeds:      2,
			}
		}
		fmt.Fprintln(notes, "running disruption (outage rate × transport × seeds on the churned custody chain)...")
		r, err := experiments.Disruption(cfg)
		if err != nil {
			fatal(err)
		}
		emit(experiments.DisruptionReport(r))
	}

	if *run == "failover" {
		cfg := experiments.FailoverConfig{Seeds: *seeds}
		if *quick {
			cfg.Seeds = 1
			cfg.Custodies = []units.ByteSize{32 * units.MB}
			cfg.Strategies = []chunknet.FailoverMode{chunknet.FailoverHold, chunknet.FailoverReroute}
		}
		fmt.Fprintln(notes, "running failover (failure profile × correlation × custody × strategy on the custody diamond)...")
		r, err := experiments.Failover(cfg)
		if err != nil {
			fatal(err)
		}
		emit(experiments.FailoverReport(r))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
