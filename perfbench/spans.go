package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one recorded interval at a layer boundary. Spans of one
// scenario share its name as ID; spans of one sweepd lease share the
// lease id. Parent is the Seq of the span that caused this one (0 for a
// root). Counts carries a scenario's per-scenario obs.Registry counters,
// so simulated work is attributed to the scenario that did it.
type span struct {
	Name    string           `json:"name"`
	ID      string           `json:"id,omitempty"`
	Seq     int64            `json:"seq"`
	Parent  int64            `json:"parent,omitempty"`
	StartNS int64            `json:"start_ns"`
	EndNS   int64            `json:"end_ns"`
	Counts  map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op returning the zero handle.
type tracer struct {
	t0  time.Time
	seq atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanHandle is an open span; its zero value (from a nil tracer) ends as
// a no-op and reports Seq 0.
type spanHandle struct {
	t *tracer
	s span
}

// start opens a span named name with shared id and causing span parent.
func (t *tracer) start(name, id string, parent int64) spanHandle {
	if t == nil {
		return spanHandle{}
	}
	return spanHandle{t: t, s: span{
		Name: name, ID: id, Seq: t.seq.Add(1), Parent: parent,
		StartNS: time.Since(t.t0).Nanoseconds(),
	}}
}

// seq returns the span's sequence number, the parent value for spans it
// causes.
func (h *spanHandle) seq() int64 { return h.s.Seq }

// end closes the span, attaching counts when non-nil.
func (h *spanHandle) end(counts map[string]int64) {
	if h.t == nil {
		return
	}
	h.s.EndNS = time.Since(h.t.t0).Nanoseconds()
	h.s.Counts = counts
	h.t.mu.Lock()
	h.t.spans = append(h.t.spans, h.s)
	h.t.mu.Unlock()
}

// snapshot returns the spans recorded so far, ordered by Seq.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readSpans parses a JSON-lines span file written by writeSpans.
func readSpans(r io.Reader) ([]span, error) {
	var out []span
	dec := json.NewDecoder(r)
	for {
		var s span
		err := dec.Decode(&s)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("read spans: %w", err)
		}
		out = append(out, s)
	}
}

// layerTime is one layer's row in the self-time table.
type layerTime struct {
	Name  string
	Count int
	Total time.Duration // summed span durations
	Self  time.Duration // summed durations minus child coverage
}

// selfTimes computes, per span name, the summed duration and the self
// time: each span's duration minus the part of its interval covered by
// the union of its children (clipped to the parent), so overlapping
// children on several workers are not subtracted twice. Rows are sorted
// by self time, largest first.
func selfTimes(spans []span) []layerTime {
	children := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNS, s.EndNS})
		}
	}
	rows := map[string]*layerTime{}
	for _, s := range spans {
		row := rows[s.Name]
		if row == nil {
			row = &layerTime{Name: s.Name}
			rows[s.Name] = row
		}
		dur := s.EndNS - s.StartNS
		row.Count++
		row.Total += time.Duration(dur)
		row.Self += time.Duration(dur - coverage(children[s.Seq], s.StartNS, s.EndNS))
	}
	out := make([]layerTime, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// coverage returns the length of the union of intervals clipped to
// [lo, hi].
func coverage(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	ivs = append([][2]int64(nil), ivs...)
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if curHi < a {
			total += curHi - curLo
			curLo, curHi = a, b
			continue
		}
		curHi = max(curHi, b)
	}
	return total + curHi - curLo
}

// selfTime returns the self time of the named layer, 0 when absent.
func selfTime(rows []layerTime, name string) time.Duration {
	for _, r := range rows {
		if r.Name == name {
			return r.Self
		}
	}
	return 0
}

// printSelfTimes renders the per-layer self-time table.
func printSelfTimes(w io.Writer, rows []layerTime) {
	fmt.Fprintf(w, "%-20s %8s %12s %12s\n", "span", "count", "total_s", "self_s")
	for _, r := range rows {
		fmt.Fprintf(w, "%-20s %8d %12.4f %12.4f\n", r.Name, r.Count, r.Total.Seconds(), r.Self.Seconds())
	}
}
