package main

import (
	"fmt"
	"io"
	"math"
	"time"
)

// endToEnd computes the end-to-end metrics over the untraced passes and
// prints them, with the ones the JSON line does not carry: the failed
// ratio, the tail's percentile and sample count, and sweep-service's
// lease turnaround.
func endToEnd(w io.Writer, res *runResult, name string) map[string]metric {
	var walls, rates, p50s, tails, cpus []float64
	level, perPass := 0.0, 0
	for _, pr := range res.passes {
		if pr.traced {
			continue
		}
		walls = append(walls, pr.wall.Seconds())
		rates = append(rates, float64(len(pr.col.lat))/pr.wall.Seconds())
		perPass = len(pr.col.lat)
		level = tailLevel(perPass)
		p50s = append(p50s, percentile(pr.col.lat, 50))
		tails = append(tails, percentile(pr.col.lat, level))
		cpus = append(cpus, pr.cpu.Seconds())
	}
	m := map[string]metric{
		"setup_s":         {median(res.setups), "s"},
		"wall_s":          {median(walls), "s"},
		"scenarios_per_s": {median(rates), "1/s"},
		"scenario_p50_s":  {median(p50s), "s"},
		"scenario_tail_s": {median(tails), "s"},
		"cpu_s":           {median(cpus), "s"},
		"peak_rss_mb":     {peakRSSMB(), "MB"},
	}
	printf(w, "workload %s: %d passes, %d scenarios per pass, %d set-ups\n", name, len(walls), perPass, len(res.setups))
	printf(w, "  pass walls (s):")
	for _, x := range walls {
		printf(w, " %.3f", x)
	}
	printf(w, "\n  set-ups (ms): min %.3f, median %.3f, max %.3f\n",
		1000*percentile(res.setups, 0), 1000*median(res.setups), 1000*percentile(res.setups, 100))
	for _, k := range sortedKeys(m) {
		printf(w, "  %-22s %14.6f %s\n", k, m[k].Value, m[k].Unit)
	}
	printf(w, "  %-22s %14.6f ratio (%d failed of %d attempted)\n", "failed_ratio",
		float64(res.failed)/float64(max(res.attempted, 1)), res.failed, res.attempted)
	printf(w, "  scenario_tail_s is p%g over %d scenarios per pass, median of %d passes\n", level, perPass, len(walls))
	if svc := servicePasses(res, false); len(svc) > 0 {
		ls, lt, n, lvl := leaseSubmit(svc)
		printf(w, "  %-22s %14.6f ms\n  %-22s %14.6f ms (p%g over %d leases per pass)\n",
			"lease_submit_p50_ms", ls, "lease_submit_tail_ms", lt, lvl, n)
	}
	return m
}

// servicePasses returns the service statistics of the traced or
// untraced passes.
func servicePasses(res *runResult, traced bool) []*serviceStats {
	var out []*serviceStats
	for _, pr := range res.passes {
		if pr.traced == traced && pr.svc != nil {
			out = append(out, pr.svc)
		}
	}
	return out
}

// leaseSubmit returns the median over passes of the lease-to-submit p50
// and tail in milliseconds, with the per-pass sample count and tail
// level.
func leaseSubmit(svc []*serviceStats) (p50, tail float64, n int, level float64) {
	var p50s, tails []float64
	for _, s := range svc {
		n = len(s.leaseSubmit)
		level = tailLevel(n)
		p50s = append(p50s, 1000*percentile(s.leaseSubmit, 50))
		tails = append(tails, 1000*percentile(s.leaseSubmit, level))
	}
	return median(p50s), median(tails), n, level
}

// layerMetrics computes the per-layer metrics over the traced passes and
// prints them with the span self-time and profile bucket tables.
func layerMetrics(w io.Writer, res *runResult) map[string]metric {
	var traced, untraced []*passResult
	for _, pr := range res.passes {
		if pr.traced {
			traced = append(traced, pr)
		} else {
			untraced = append(untraced, pr)
		}
	}
	n := float64(len(traced))
	perPass := func(d time.Duration) float64 { return d.Seconds() / n }
	wallOf := func(ps []*passResult) float64 {
		var xs []float64
		for _, p := range ps {
			xs = append(xs, p.wall.Seconds())
		}
		return median(xs)
	}
	medianOf := func(f func(*passResult) float64) float64 {
		var xs []float64
		for _, p := range traced {
			xs = append(xs, f(p))
		}
		return median(xs)
	}

	rows := selfTimes(res.spans)
	byBucket, totalNS := bucketize(res.profile)
	share := func(b string) float64 { return ratio(float64(byBucket[b]), float64(totalNS)) }
	cum := func(fn string) float64 { return float64(cumulativeNS(res.profile, fn)) / 1e9 / n }

	c := traced[0].col.counts // identical across traced passes (checked)
	peaks := traced[0].col.peaks
	count := func(k string) float64 { return float64(c[k]) }
	desCPU := float64(byBucket[bucketDES]) // ns over all traced passes

	m := map[string]metric{
		"build.busy_s":    {perPass(selfTime(rows, "build")), "s"},
		"build.cpu_share": {share(bucketBuild), "ratio"},

		"flowsim.busy_s":              {perPass(selfTime(rows, "flowsim")), "s"},
		"flowsim.alloc.cpu_share":     {share(bucketFlowAlloc), "ratio"},
		"flowsim.loop.cpu_share":      {share(bucketFlowLoop), "ratio"},
		"flowsim.flows_admitted":      {count("flowsim_flows_admitted"), "count"},
		"flowsim.alloc_fills":         {count("flowsim_alloc_fills"), "count"},
		"flowsim.fills_per_flow":      {ratio(count("flowsim_alloc_fills"), count("flowsim_flows_admitted")), "ratio"},
		"flowsim.backpressure_events": {count("flowsim_backpressure_events"), "count"},

		"des.cpu_share":        {share(bucketDES), "ratio"},
		"des.events_fired":     {count("des_events_fired"), "count"},
		"des.events_scheduled": {count("des_events_scheduled"), "count"},
		"des.pool_hit_ratio":   {ratio(count("des_events_pooled"), count("des_events_scheduled")), "ratio"},
		"des.ns_per_event":     {ratio(desCPU, count("des_events_fired")*n), "ns"},

		"chunknet.busy_s":           {perPass(selfTime(rows, "chunknet")), "s"},
		"chunknet.cpu_share":        {share(bucketChunknet), "ratio"},
		"chunknet.chunks_sent":      {count("chunknet_chunks_sent"), "count"},
		"chunknet.delivered_ratio":  {ratio(count("chunknet_chunks_delivered"), count("chunknet_chunks_sent")), "ratio"},
		"chunknet.retransmits":      {count("chunknet_retransmits"), "count"},
		"chunknet.dropped":          {count("chunknet_chunks_dropped"), "count"},
		"chunknet.pkts_lost_random": {count("chunknet_pkts_lost_random"), "count"},
		"chunknet.chunks_detoured":  {count("chunknet_chunks_detoured"), "count"},
		"planner.cpu_share":         {share(bucketPlanner), "ratio"},
		"cache.cpu_share":           {share(bucketCache), "ratio"},
		"cache.custody_peak_bytes":  {float64(peaks["chunknet_custody_peak_bytes"]), "bytes"},

		"sweep.cpu_share":   {share(bucketSweep), "ratio"},
		"sweep.observe_s":   {cum("repro/internal/sweep.(*Accumulator).Observe"), "s"},
		"sweep.aggregate_s": {perPass(selfTime(rows, "sweep.aggregate")), "s"},
		"sweep.render_s":    {perPass(selfTime(rows, "sweep.render")), "s"},
		"sweep.pending_max": {medianOf(func(p *passResult) float64 { return float64(p.pendingMax.Load()) }), "count"},
		"sweep.worker_busy_ratio": {medianOf(func(p *passResult) float64 {
			return float64(p.busyNS) / (float64(workers()) * float64(p.wall.Nanoseconds()))
		}), "ratio"},
		"checkpoint.cpu_share": {share(bucketCheckpoint), "ratio"},
		"checkpoint.record_s":  {cum("repro/internal/sweep.(*Checkpoint).Record"), "s"},
		"checkpoint.records":   {medianOf(func(p *passResult) float64 { return float64(p.cpRecords) }), "count"},
		"checkpoint.bytes":     {medianOf(func(p *passResult) float64 { return float64(p.cpBytes) }), "bytes"},

		"runtime.gc_cpu_share":    {share(bucketGC), "ratio"},
		"runtime.sched_cpu_share": {share(bucketSched), "ratio"},
		"runtime.mallocs":         {medianOf(func(p *passResult) float64 { return float64(p.mallocs) }), "count"},
		"runtime.alloc_bytes":     {medianOf(func(p *passResult) float64 { return float64(p.allocBytes) }), "bytes"},
		"harness.cpu_share":       {share(bucketHarness), "ratio"},
		"other.cpu_share":         {share(bucketOther), "ratio"},
		"trace.overhead_s":        {wallOf(traced) - wallOf(untraced), "s"},
	}
	for k, v := range sweepdMetrics(servicePasses(res, true)) {
		m[k] = v
	}
	m["sweepd.cpu_share"] = metric{share(bucketSweepd), "ratio"}

	printf(w, "traced run: %d untraced and %d traced passes, %d profile samples\n", len(untraced), len(traced), len(res.profile))
	printf(w, "\nspan self time over %d traced passes:\n", len(traced))
	printSelfTimes(w, rows)
	printf(w, "\nCPU profile buckets:\n")
	for _, b := range buckets {
		printf(w, "  %-16s %8.4f s %7.2f%%\n", b, float64(byBucket[b])/1e9, 100*share(b))
	}
	printf(w, "\nper-layer metrics:\n")
	for _, k := range sortedKeys(m) {
		printf(w, "  %-30s %16.6f %s\n", k, m[k].Value, m[k].Unit)
	}
	return m
}

// sweepdMetrics returns the service-layer metrics, medians over passes;
// zero for workloads without a service.
func sweepdMetrics(svc []*serviceStats) map[string]metric {
	med := func(f func(*serviceStats) float64) float64 {
		if len(svc) == 0 {
			return 0
		}
		var xs []float64
		for _, s := range svc {
			xs = append(xs, f(s))
		}
		return median(xs)
	}
	ms := func(xs []float64, p float64) float64 { return 1000 * percentile(xs, p) }
	ls50, lsTail := 0.0, 0.0
	if len(svc) > 0 {
		ls50, lsTail, _, _ = leaseSubmit(svc)
	}
	return map[string]metric{
		"sweepd.lease_ms_p50":  {med(func(s *serviceStats) float64 { return ms(s.serveLease, 50) }), "ms"},
		"sweepd.submit_ms_p50": {med(func(s *serviceStats) float64 { return ms(s.serveSubmit, 50) }), "ms"},
		"sweepd.submit_ms_tail": {med(func(s *serviceStats) float64 {
			return ms(s.serveSubmit, tailLevel(len(s.serveSubmit)))
		}), "ms"},
		"sweepd.leases_granted":       {med(func(s *serviceStats) float64 { return float64(s.leases) }), "count"},
		"sweepd.lease_wait_ratio":     {med(func(s *serviceStats) float64 { return ratio(float64(s.leaseWaits), float64(s.leaseReqs)) }), "ratio"},
		"sweepd.records_duplicate":    {med(func(s *serviceStats) float64 { return float64(s.duplicates) }), "count"},
		"sweepd.leases_expired":       {med(func(s *serviceStats) float64 { return float64(s.expired) }), "count"},
		"sweepd.worker_retries":       {med(func(s *serviceStats) float64 { return float64(s.retries) }), "count"},
		"sweepd.worker_idle_s":        {med(func(s *serviceStats) float64 { return float64(s.workerIdleNS) / 1e9 }), "s"},
		"sweepd.lease_submit_p50_ms":  {ls50, "ms"},
		"sweepd.lease_submit_tail_ms": {lsTail, "ms"},
	}
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(a) {
		return 0
	}
	return a / b
}

// printf writes to w, ignoring errors (the human-readable report).
func printf(w io.Writer, format string, args ...any) { fmt.Fprintf(w, format, args...) }
