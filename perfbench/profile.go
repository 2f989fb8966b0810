package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A CPU profile from runtime/pprof is a gzipped profile.proto message.
// The benchmark reads the few fields it needs with a minimal protobuf
// decoder, so it depends on nothing outside the standard library.

// frame is one (possibly inlined) function on a sample's stack.
type frame struct {
	Func string
	File string
}

// cpuSample is one aggregated profile sample: its stack, leaf first, and
// the CPU time it stands for.
type cpuSample struct {
	Stack []frame
	NS    int64
}

// parseCPUProfile decodes a gzipped pprof CPU profile into samples.
func parseCPUProfile(data []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	type rawFunc struct{ name, file int64 }
	var (
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id → function ids, leaf first
		funcs   = map[uint64]rawFunc{}
		strs    []string
		period  int64
	)
	err = walkFields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := walkFields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					for _, x := range appendVarints(nil, wire, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkFields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return walkFields(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var f rawFunc
			err := walkFields(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					f.name = int64(v)
				case 4:
					f.file = int64(v)
				}
				return nil
			})
			funcs[id] = f
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		case 12: // period
			period = int64(v)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		cs := cpuSample{}
		switch {
		case len(s.values) >= 2:
			cs.NS = s.values[1] // [samples/count, cpu/nanoseconds]
		case len(s.values) == 1:
			cs.NS = s.values[0] * period
		}
		for _, l := range s.locs {
			for _, fid := range locs[l] {
				f := funcs[fid]
				cs.Stack = append(cs.Stack, frame{Func: str(f.name), File: str(f.file)})
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// walkFields calls fn for each field of a protobuf message: varint fields
// pass their value in v, length-delimited fields their bytes in b.
func walkFields(buf []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := uvarint(buf)
		if n <= 0 {
			return errors.New("bad field key")
		}
		buf = buf[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = uvarint(buf)
			if n <= 0 {
				return errors.New("bad varint")
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errors.New("short fixed64")
			}
			buf = buf[8:]
		case 2:
			l, n := uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("bad length")
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errors.New("short fixed32")
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (wire 2) or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// Profile buckets: the layers a CPU sample can be charged to.
const (
	bucketFlowAlloc  = "flowsim.alloc"
	bucketFlowLoop   = "flowsim.loop"
	bucketDES        = "des"
	bucketChunknet   = "chunknet"
	bucketPlanner    = "planner"
	bucketCache      = "cache"
	bucketBuild      = "build"
	bucketSweep      = "sweep"
	bucketCheckpoint = "checkpoint"
	bucketSweepd     = "sweepd"
	bucketHarness    = "harness"
	bucketGC         = "runtime.gc"
	bucketSched      = "runtime.sched"
	bucketOther      = "other"
)

// buckets lists every bucket in report order.
var buckets = []string{
	bucketFlowAlloc, bucketFlowLoop, bucketDES, bucketChunknet, bucketPlanner,
	bucketCache, bucketBuild, bucketSweep, bucketCheckpoint, bucketSweepd,
	bucketHarness, bucketGC, bucketSched, bucketOther,
}

// bucketRule charges a frame to a bucket when its function name has the
// prefix, or — when file is set — when its source file has that suffix.
type bucketRule struct {
	bucket string
	prefix string
	file   string
}

// bucketRules is the pattern table. A sample goes to the bucket of the
// first frame, walking from the leaf towards the root, that any rule
// matches, trying rules in order per frame. Packages not listed
// (runtime allocation, encoding/json, sort, stats, report, os, syscall)
// are charged to the listed caller above them: a checkpoint's JSON
// encoding and file write count as checkpoint, an HTTP body's as sweepd.
var bucketRules = []bucketRule{
	{bucket: bucketPlanner, prefix: "repro/internal/chunknet.(*Sim).pickDetour"},
	{bucket: bucketPlanner, prefix: "repro/internal/chunknet.(*Sim).shouldDetour"},
	{bucket: bucketPlanner, prefix: "repro/internal/chunknet.(*Sim).pickEvacuation"},
	{bucket: bucketPlanner, prefix: "repro/internal/chunknet.(*Sim).pickControlReroute"},
	{bucket: bucketPlanner, prefix: "repro/internal/chunknet.(*Sim).failoverDetour"},
	{bucket: bucketPlanner, prefix: "repro/internal/core."},
	{bucket: bucketPlanner, prefix: "repro/internal/route."},
	{bucket: bucketCache, prefix: "repro/internal/cache."},
	{bucket: bucketDES, prefix: "repro/internal/des."},
	{bucket: bucketChunknet, prefix: "repro/internal/chunknet."},
	{bucket: bucketFlowAlloc, file: "internal/flowsim/alloc.go"},
	{bucket: bucketFlowAlloc, file: "internal/flowsim/classes.go"},
	{bucket: bucketFlowAlloc, file: "internal/flowsim/maxmin.go"},
	{bucket: bucketFlowLoop, prefix: "repro/internal/flowsim."},
	{bucket: bucketBuild, prefix: "repro/internal/topo."},
	{bucket: bucketBuild, prefix: "repro/internal/workload."},
	{bucket: bucketCheckpoint, file: "internal/sweep/checkpoint.go"},
	{bucket: bucketCheckpoint, file: "internal/sweep/merge.go"},
	{bucket: bucketSweep, prefix: "repro/internal/sweep."},
	{bucket: bucketSweepd, prefix: "repro/internal/sweepd."},
	{bucket: bucketSweepd, prefix: "net/"},
	{bucket: bucketSweepd, prefix: "net."},
	{bucket: bucketHarness, prefix: "main."},
}

// gcPrefixes mark a sample as garbage-collector work wherever they sit on
// the stack: background marking, mutator assists, sweeping and
// scavenging, and write barriers.
var gcPrefixes = []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.wbBuf"}

// schedFuncs mark an otherwise unmatched sample as scheduler work.
var schedFuncs = []string{"runtime.schedule", "runtime.findRunnable", "runtime.mcall", "runtime.park_m",
	"runtime.goexit0", "runtime.sysmon", "runtime.mstart", "runtime.stopm", "runtime.notesleep"}

// classify returns the single bucket a sample is charged to.
func classify(stack []frame) string {
	for _, f := range stack {
		for _, p := range gcPrefixes {
			if strings.HasPrefix(f.Func, p) {
				return bucketGC
			}
		}
	}
	for _, f := range stack {
		for _, r := range bucketRules {
			if r.file != "" {
				if strings.HasSuffix(f.File, r.file) {
					return r.bucket
				}
				continue
			}
			if strings.HasPrefix(f.Func, r.prefix) {
				return r.bucket
			}
		}
	}
	for _, f := range stack {
		for _, s := range schedFuncs {
			if f.Func == s {
				return bucketSched
			}
		}
	}
	return bucketOther
}

// bucketize charges every sample to exactly one bucket and returns CPU
// nanoseconds per bucket plus the total.
func bucketize(samples []cpuSample) (map[string]int64, int64) {
	out := make(map[string]int64, len(buckets))
	var total int64
	for _, s := range samples {
		out[classify(s.Stack)] += s.NS
		total += s.NS
	}
	return out, total
}

// cumulativeNS returns the CPU nanoseconds of samples with fn anywhere on
// their stack (each sample counted once).
func cumulativeNS(samples []cpuSample, fn string) int64 {
	var total int64
	for _, s := range samples {
		for _, f := range s.Stack {
			if f.Func == fn {
				total += s.NS
				break
			}
		}
	}
	return total
}
