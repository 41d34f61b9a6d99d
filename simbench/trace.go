package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"
)

// span is one timed call. Spans of one leg share Leg; Parent is the ID of
// the enclosing span, 0 for a leg's root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Leg     int    `json:"leg"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
}

// tracer keeps spans in memory; the run writes them out when it ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent, leg int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Leg: leg, Name: name,
		StartNS: time.Since(t.t0).Nanoseconds()})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	s := &t.spans[id-1]
	s.DurNS = time.Since(t.t0).Nanoseconds() - s.StartNS
}

// spanTotals sums span durations by name, in seconds.
func (t *tracer) spanTotals() map[string]float64 {
	out := make(map[string]float64)
	for _, s := range t.spans {
		out[s.Name] += float64(s.DurNS) / 1e9
	}
	return out
}

// uncovered returns, per leg root, the share of its duration that no child
// span covers (the root's self time over its duration).
func (t *tracer) uncovered() map[int]float64 {
	child := make(map[int]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.DurNS
		}
	}
	out := make(map[int]float64)
	for _, s := range t.spans {
		if s.Parent == 0 {
			out[s.Leg] = ratio(float64(s.DurNS-child[s.ID]), float64(s.DurNS))
		}
	}
	return out
}

// cpuSample is the part of a runtime/pprof CPU profile sample the benchmark
// reads: its CPU nanoseconds, leaf symbol and whether it carries the
// span=sim.run label.
type cpuSample struct {
	NS     int64
	Leaf   string
	SimRun bool
}

// parseCPUProfile decodes a gzip-compressed pprof profile.proto with only
// the standard library. It reads the fields runtime/pprof writes: sample
// (2), location (4), function (5) and string_table (6).
func parseCPUProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		vals   []int64
		labels [][2]uint64 // key, str string indexes
	}
	var (
		samples []rawSample
		locFunc = map[uint64]uint64{} // location id -> leaf function id
		funName = map[uint64]uint64{} // function id -> name string index
		strs    []string
	)
	err = eachField(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case 2:
			var s rawSample
			return eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendUints(s.locs, v, b)
				case 2:
					for _, u := range appendUints(nil, v, b) {
						s.vals = append(s.vals, int64(u))
					}
				case 3:
					var kv [2]uint64
					if err := eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 || f == 2 {
							kv[f-1] = v
						}
						return nil
					}, nil); err != nil {
						return err
					}
					s.labels = append(s.labels, kv)
				}
				return nil
			}, func() { samples = append(samples, s) })
		case 4:
			var id, fn uint64
			return eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					if fn != 0 {
						return nil // line[0] is the innermost inlined frame
					}
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fn = v
						}
						return nil
					}, nil)
				}
				return nil
			}, func() { locFunc[id] = fn })
		case 5:
			var id, name uint64
			return eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}, func() { funName[id] = name })
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	}, nil)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		// Sample values are [samples/count, cpu/nanoseconds].
		if len(s.vals) < 2 || len(s.locs) == 0 {
			continue
		}
		cs := cpuSample{NS: s.vals[1], Leaf: str(funName[locFunc[s.locs[0]]])}
		for _, kv := range s.labels {
			if str(kv[0]) == "span" && str(kv[1]) == "sim.run" {
				cs.SimRun = true
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// eachField walks the protobuf message b, calling f for every field with
// its number, its varint value (for varint and fixed wire types) or its
// bytes (for length-delimited ones). done, when non-nil, runs after the
// last field.
func eachField(b []byte, f func(field int, v uint64, data []byte) error, done func()) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errBadProto
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errBadProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errBadProto
			}
			b = b[8:]
			continue
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errBadProto
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errBadProto
			}
			b = b[4:]
			continue
		default:
			return errBadProto
		}
		if err := f(field, v, data); err != nil {
			return err
		}
	}
	if done != nil {
		done()
	}
	return nil
}

var errBadProto = errors.New("malformed protobuf")

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// appendUints appends one repeated-uint64 field occurrence: a single varint
// v, or (when data is non-nil) a packed run of varints.
func appendUints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		u, n := uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		data = data[n:]
	}
	return dst
}

// layerOf maps a leaf symbol to the cpuLayers entry it is charged to:
// ndpgpu/internal/<layer> for the simulator's packages, runtime for the Go
// runtime and its internal packages, other for everything else.
func layerOf(sym string) string {
	if i := strings.IndexByte(sym, '['); i >= 0 {
		sym = sym[:i] // generic instantiations may hold import paths
	}
	slash := strings.LastIndexByte(sym, '/')
	pkg := sym
	if dot := strings.IndexByte(sym[slash+1:], '.'); dot >= 0 {
		pkg = sym[:slash+1+dot]
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "ndpgpu/internal/"):
		l := strings.TrimPrefix(pkg, "ndpgpu/internal/")
		for _, known := range cpuLayers {
			if l == known {
				return l
			}
		}
	}
	return "other"
}

// cpuMetrics charges each sample's CPU time to its layer: samples inside
// sim.run by leaf package and by the cpuFuncs prefixes, and runtime samples
// outside it (the garbage collector's background workers) separately.
func cpuMetrics(samples []cpuSample) map[string]float64 {
	out := make(map[string]float64)
	for _, l := range cpuLayers {
		out[l+".cpu_s"] = 0
	}
	for _, f := range cpuFuncs {
		out[f.Name] = 0
	}
	out["runtime.gc_bg_cpu_s"] = 0
	for _, s := range samples {
		sec := float64(s.NS) / 1e9
		layer := layerOf(s.Leaf)
		if !s.SimRun {
			if layer == "runtime" {
				out["runtime.gc_bg_cpu_s"] += sec
			}
			continue
		}
		out[layer+".cpu_s"] += sec
		for _, f := range cpuFuncs {
			if strings.HasPrefix(s.Leaf, f.Prefix) {
				out[f.Name] += sec
			}
		}
	}
	return out
}
