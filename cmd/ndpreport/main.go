// Command ndpreport inspects and compares the simulator's machine-readable
// outputs: metrics runs (ndpsim -metrics), golden statistic digests, and
// benchmark records.
//
// Usage:
//
//	ndpreport show run.json                   # sparkline summary of a metrics run
//	ndpreport diff a.json b.json              # numeric-leaf diff, nonzero exit on drift
//	ndpreport diff -tol 0.05 a.json b.json
//	ndpreport diff -tolprefix 'spans=0.1;series=0.02' a.json b.json
//	ndpreport golden -out golden.json         # recompute the golden digests
//	ndpreport benchgate -bench out.txt -ref BENCH_pr4.json
//	ndpreport bench-history                   # trend table across BENCH_*.json
//
// Exit status: 0 success / no drift, 1 drift or gate failure, 2 usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"ndpgpu/internal/experiments"
	"ndpgpu/internal/metrics"
	"ndpgpu/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func usage(werr io.Writer) int {
	fmt.Fprintln(werr, "usage: ndpreport <show|diff|golden|benchgate|bench-history> [flags] [args]")
	return 2
}

func run(args []string, w, werr io.Writer) int {
	if len(args) == 0 {
		return usage(werr)
	}
	switch args[0] {
	case "show":
		return runShow(args[1:], w, werr)
	case "diff":
		return runDiff(args[1:], w, werr)
	case "golden":
		return runGolden(args[1:], w, werr)
	case "benchgate":
		return runBenchgate(args[1:], w, werr)
	case "bench-history":
		return runBenchHistory(args[1:], w, werr)
	default:
		fmt.Fprintf(werr, "ndpreport: unknown subcommand %q\n", args[0])
		return usage(werr)
	}
}

// runShow prints a sparkline per series of a metrics run.
func runShow(args []string, w, werr io.Writer) int {
	fs := flag.NewFlagSet("ndpreport show", flag.ContinueOnError)
	fs.SetOutput(werr)
	width := fs.Int("width", 60, "sparkline width in glyphs")
	track := fs.String("track", "", "only show series on this track")
	if err := fs.Parse(args); err != nil || fs.NArg() != 1 {
		fmt.Fprintln(werr, "usage: ndpreport show [-width N] [-track name] run.json")
		return 2
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(werr, "ndpreport:", err)
		return 2
	}
	var r metrics.Run
	if err := json.Unmarshal(data, &r); err != nil {
		fmt.Fprintln(werr, "ndpreport:", err)
		return 2
	}
	if r.Schema != metrics.Schema {
		fmt.Fprintf(werr, "ndpreport: %s: schema %q, want %q\n", fs.Arg(0), r.Schema, metrics.Schema)
		return 2
	}
	var endPS int64
	if n := len(r.TimesPS); n > 0 {
		endPS = r.TimesPS[n-1]
	}
	fmt.Fprintf(w, "%s  interval=%d cycles  samples=%d  end=%.3f us",
		fs.Arg(0), r.IntervalCycles, len(r.TimesPS), float64(endPS)/1e6)
	if len(r.Meta) > 0 {
		keys := make([]string, 0, len(r.Meta))
		for k := range r.Meta {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "  %s=%s", k, r.Meta[k])
		}
	}
	fmt.Fprintln(w)
	for _, s := range r.Series {
		if *track != "" && s.Track != *track {
			continue
		}
		min, max, last := seriesRange(s.Samples)
		fmt.Fprintf(w, "%-28s %s  min=%-10.4g max=%-10.4g last=%-10.4g %s\n",
			s.Track+"/"+s.Name, metrics.Sparkline(s.Samples, *width), min, max, last, s.Unit)
	}
	if len(r.Spans) > 0 {
		var sum int64
		for _, sp := range r.Spans {
			sum += sp.DurPS
		}
		fmt.Fprintf(w, "%d offload round trips, %.2f us avg", len(r.Spans),
			float64(sum)/float64(len(r.Spans))/1e6)
		if r.SpansDropped > 0 {
			fmt.Fprintf(w, " (%d dropped past the retention cap)", r.SpansDropped)
		}
		fmt.Fprintln(w)
	}
	return 0
}

func seriesRange(samples []float64) (min, max, last float64) {
	if len(samples) == 0 {
		return 0, 0, 0
	}
	min, max = samples[0], samples[0]
	for _, v := range samples {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max, samples[len(samples)-1]
}

// runDiff compares the numeric leaves of two JSON documents.
func runDiff(args []string, w, werr io.Writer) int {
	fs := flag.NewFlagSet("ndpreport diff", flag.ContinueOnError)
	fs.SetOutput(werr)
	tol := fs.Float64("tol", 0, "default relative tolerance")
	tolPrefix := fs.String("tolprefix", "", "per-prefix tolerances, 'prefix=tol;prefix=tol' (longest prefix wins)")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(werr, "usage: ndpreport diff [-tol f] [-tolprefix 'p=f;p=f'] a.json b.json")
		return 2
	}
	tols := metrics.Tolerances{Default: *tol}
	if *tolPrefix != "" {
		tols.ByPrefix = map[string]float64{}
		for _, part := range strings.Split(*tolPrefix, ";") {
			k, v, ok := strings.Cut(part, "=")
			if !ok {
				fmt.Fprintf(werr, "ndpreport: bad -tolprefix entry %q (want prefix=tol)\n", part)
				return 2
			}
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				fmt.Fprintf(werr, "ndpreport: bad tolerance in %q: %v\n", part, err)
				return 2
			}
			tols.ByPrefix[k] = f
		}
	}
	a, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(werr, "ndpreport:", err)
		return 2
	}
	b, err := os.ReadFile(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(werr, "ndpreport:", err)
		return 2
	}
	drifts, err := metrics.DiffJSON(a, b, tols)
	if err != nil {
		fmt.Fprintln(werr, "ndpreport:", err)
		return 2
	}
	if len(drifts) == 0 {
		fmt.Fprintf(w, "no drift: %s == %s\n", fs.Arg(0), fs.Arg(1))
		return 0
	}
	fmt.Fprintf(w, "%d drifting leaves between %s and %s:\n", len(drifts), fs.Arg(0), fs.Arg(1))
	for _, d := range drifts {
		fmt.Fprintf(w, "  %s\n", d)
	}
	return 1
}

// runGolden recomputes the golden statistic digests and writes them as JSON.
func runGolden(args []string, w, werr io.Writer) int {
	fs := flag.NewFlagSet("ndpreport golden", flag.ContinueOnError)
	fs.SetOutput(werr)
	out := fs.String("out", "", "write the digests to this file (default stdout)")
	scale := fs.Int("scale", 1, "problem-size scale factor")
	if err := fs.Parse(args); err != nil || fs.NArg() != 0 {
		fmt.Fprintln(werr, "usage: ndpreport golden [-out file] [-scale N]")
		return 2
	}
	digests, err := experiments.GoldenDigests(sim.AuditConfig(), *scale)
	if err != nil {
		fmt.Fprintln(werr, "ndpreport:", err)
		return 1
	}
	dst := w
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(werr, "ndpreport:", err)
			return 2
		}
		defer f.Close()
		dst = f
	}
	enc := json.NewEncoder(dst)
	enc.SetIndent("", " ")
	if err := enc.Encode(digests); err != nil {
		fmt.Fprintln(werr, "ndpreport:", err)
		return 1
	}
	return 0
}

// benchLine matches one go-test benchmark result line, with the optional
// -benchmem columns (custom metrics like "simulated-us" may sit in between):
// "BenchmarkSingleRunVADD-8   5   535806004 ns/op   16.58 simulated-us   174010854 B/op   234256 allocs/op".
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(\d+(?:\.\d+)?) ns/op(?:.*?\s(\d+) B/op\s+(\d+) allocs/op)?`)

// hostFingerprint describes the machine a benchmark record was taken on.
// Wall-clock numbers are only comparable between identical fingerprints;
// allocation counts survive a CPU change but not a Go toolchain change.
type hostFingerprint struct {
	CPUModel  string `json:"cpu_model"`
	NProc     int    `json:"nproc"`
	GoVersion string `json:"go_version"`
}

// currentHost reads this machine's fingerprint. The CPU model comes from
// /proc/cpuinfo and is empty on platforms without it — an empty model only
// matches an empty model, which is the safe direction (mismatch relaxes the
// gate rather than tightening it).
func currentHost() hostFingerprint {
	h := hostFingerprint{NProc: runtime.NumCPU(), GoVersion: runtime.Version()}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// benchResult is one parsed benchmark line.
type benchResult struct {
	nsPerOp     float64
	bytesPerOp  float64
	allocsPerOp float64
}

// parseBench extracts the named benchmark's result from go test -bench
// output (last occurrence wins, matching go test's own repetition semantics).
func parseBench(data, name string) (benchResult, bool) {
	var r benchResult
	found := false
	for _, line := range strings.Split(data, "\n") {
		mm := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if mm == nil || mm[1] != name {
			continue
		}
		r.nsPerOp, _ = strconv.ParseFloat(mm[2], 64)
		if mm[3] != "" {
			r.bytesPerOp, _ = strconv.ParseFloat(mm[3], 64)
			r.allocsPerOp, _ = strconv.ParseFloat(mm[4], 64)
		}
		found = true
	}
	return r, found
}

// benchRefDoc is the subset of a BENCH_*.json record the gate reads.
type benchRefDoc struct {
	Host  *hostFingerprint `json:"host"`
	Macro struct {
		SerialNsPerOp     float64 `json:"serial_ns_per_op"`
		SerialAllocsPerOp float64 `json:"serial_allocs_per_op"`
	} `json:"macro"`
}

// runBenchgate compares a benchmark run against a recorded reference,
// failing only on slowdowns beyond the slack (speedups just warn, so a
// faster host never breaks the gate). When the reference carries a host
// fingerprint and it does not match this machine, the wall-clock gate
// relaxes to report-only — cross-host ns/op comparisons are noise, and a
// hard gate on them would train people to ignore failures. The allocation
// gate (allocs/op, when both sides record it) is count-based and
// host-independent, so it stays hard across CPU changes and relaxes only
// when the Go toolchain differs.
func runBenchgate(args []string, w, werr io.Writer) int {
	fs := flag.NewFlagSet("ndpreport benchgate", flag.ContinueOnError)
	fs.SetOutput(werr)
	bench := fs.String("bench", "", "go test -bench output file")
	ref := fs.String("ref", "BENCH_pr4.json", "reference record with macro.serial_ns_per_op")
	name := fs.String("name", "BenchmarkSingleRunVADD", "benchmark to gate")
	slack := fs.Float64("slack", 0.25, "allowed relative slowdown")
	allocSlack := fs.Float64("allocslack", 0.10, "allowed relative allocs/op regression")
	if err := fs.Parse(args); err != nil || *bench == "" || fs.NArg() != 0 {
		fmt.Fprintln(werr, "usage: ndpreport benchgate -bench out.txt [-ref BENCH_pr4.json] [-name B] [-slack f] [-allocslack f]")
		return 2
	}
	data, err := os.ReadFile(*bench)
	if err != nil {
		fmt.Fprintln(werr, "ndpreport:", err)
		return 2
	}
	got, found := parseBench(string(data), *name)
	if !found {
		fmt.Fprintf(werr, "ndpreport: no %s result in %s\n", *name, *bench)
		return 2
	}
	refData, err := os.ReadFile(*ref)
	if err != nil {
		fmt.Fprintln(werr, "ndpreport:", err)
		return 2
	}
	var doc benchRefDoc
	if err := json.Unmarshal(refData, &doc); err != nil {
		fmt.Fprintln(werr, "ndpreport:", err)
		return 2
	}
	want := doc.Macro.SerialNsPerOp
	if want <= 0 {
		fmt.Fprintf(werr, "ndpreport: %s has no macro.serial_ns_per_op\n", *ref)
		return 2
	}

	timeGate, allocGate := true, true
	if doc.Host != nil {
		here := currentHost()
		if *doc.Host != here {
			timeGate = false
			fmt.Fprintf(w, "WARNING: host fingerprint mismatch — wall-clock gate is REPORT-ONLY\n")
			fmt.Fprintf(w, "  reference: cpu=%q nproc=%d go=%s\n", doc.Host.CPUModel, doc.Host.NProc, doc.Host.GoVersion)
			fmt.Fprintf(w, "  this host: cpu=%q nproc=%d go=%s\n", here.CPUModel, here.NProc, here.GoVersion)
			if doc.Host.GoVersion != here.GoVersion {
				allocGate = false
				fmt.Fprintf(w, "  Go toolchain differs too: allocation gate is also report-only\n")
			}
			fmt.Fprintf(w, "  re-record the reference on this host to restore the hard gate\n")
		}
	}

	fail := false
	rel := got.nsPerOp/want - 1
	fmt.Fprintf(w, "%s: %.0f ns/op vs reference %.0f ns/op (%+.1f%%, slack ±%.0f%%)\n",
		*name, got.nsPerOp, want, 100*rel, 100**slack)
	if rel > *slack {
		if timeGate {
			fmt.Fprintf(w, "FAIL: slower than the reference beyond the slack\n")
			fail = true
		} else {
			fmt.Fprintf(w, "note: beyond the slack, tolerated (fingerprint mismatch)\n")
		}
	}
	if rel < -*slack {
		fmt.Fprintf(w, "note: faster than the reference beyond the slack — consider refreshing %s\n", *ref)
	}

	if wantAllocs := doc.Macro.SerialAllocsPerOp; wantAllocs > 0 && got.allocsPerOp > 0 {
		arel := got.allocsPerOp/wantAllocs - 1
		fmt.Fprintf(w, "%s: %.0f allocs/op vs reference %.0f allocs/op (%+.1f%%, slack +%.0f%%)\n",
			*name, got.allocsPerOp, wantAllocs, 100*arel, 100**allocSlack)
		if arel > *allocSlack {
			if allocGate {
				fmt.Fprintf(w, "FAIL: allocs/op regressed beyond the slack\n")
				fail = true
			} else {
				fmt.Fprintf(w, "note: allocs/op beyond the slack, tolerated (Go toolchain mismatch)\n")
			}
		}
	}

	if fail {
		return 1
	}
	fmt.Fprintln(w, "ok")
	return 0
}

// benchHistoryRow is one BENCH_*.json record reduced to its trend numbers.
type benchHistoryRow struct {
	file    string
	pr      int
	ns      float64
	allocs  float64
	bytes   float64
	host    string
	goVer   string
	caveat  bool // record flags its own host as incomparable to the prior row
	hasHost bool
}

// benchHistoryNums digs the serial ns/op, allocs/op, and B/op out of one
// record. The schema grew across PRs: pr1 used macro.after.*, pr2 used
// macro.pr2.*, pr4 onward macro.serial_ns_per_op (+ serial_allocs_per_op
// from pr9). The lookup prefers the modern leaves, then the record's own
// "after"/"prN" sub-object.
func benchHistoryNums(raw map[string]any, prTag string) (ns, allocs, bytes float64) {
	macro, _ := raw["macro"].(map[string]any)
	if macro == nil {
		return 0, 0, 0
	}
	num := func(m map[string]any, k string) float64 {
		v, _ := m[k].(float64)
		return v
	}
	if v := num(macro, "serial_ns_per_op"); v > 0 {
		return v, num(macro, "serial_allocs_per_op"), num(macro, "serial_bytes_per_op")
	}
	for _, key := range []string{prTag, "after"} {
		if sub, ok := macro[key].(map[string]any); ok {
			if v := num(sub, "ns_per_op"); v > 0 {
				return v, num(sub, "allocs_per_op"), num(sub, "bytes_per_op")
			}
		}
	}
	return 0, 0, 0
}

var benchFilePR = regexp.MustCompile(`BENCH_pr(\d+)\.json$`)

// runBenchHistory merges every BENCH_*.json record into one trend table:
// per-PR serial ns/op with the step and cumulative speedups, plus allocs/op
// where recorded. Cross-host caveats are flagged per row — the table is a
// trajectory, not a controlled experiment, and rows from different hosts are
// explicitly marked as not directly comparable.
func runBenchHistory(args []string, w, werr io.Writer) int {
	fs := flag.NewFlagSet("ndpreport bench-history", flag.ContinueOnError)
	fs.SetOutput(werr)
	dir := fs.String("dir", ".", "directory holding BENCH_*.json records")
	if err := fs.Parse(args); err != nil {
		fmt.Fprintln(werr, "usage: ndpreport bench-history [-dir path] [files...]")
		return 2
	}
	files := fs.Args()
	if len(files) == 0 {
		matches, err := filepath.Glob(filepath.Join(*dir, "BENCH_*.json"))
		if err != nil || len(matches) == 0 {
			fmt.Fprintf(werr, "ndpreport: no BENCH_*.json records in %s\n", *dir)
			return 2
		}
		files = matches
	}
	var rows []benchHistoryRow
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			fmt.Fprintln(werr, "ndpreport:", err)
			return 2
		}
		var raw map[string]any
		if err := json.Unmarshal(data, &raw); err != nil {
			fmt.Fprintf(werr, "ndpreport: %s: %v\n", f, err)
			return 2
		}
		row := benchHistoryRow{file: filepath.Base(f), pr: 1 << 30}
		prTag := ""
		if mm := benchFilePR.FindStringSubmatch(f); mm != nil {
			row.pr, _ = strconv.Atoi(mm[1])
			prTag = "pr" + mm[1]
		}
		row.ns, row.allocs, row.bytes = benchHistoryNums(raw, prTag)
		if row.ns <= 0 {
			fmt.Fprintf(werr, "ndpreport: %s: no serial ns/op found, skipping\n", f)
			continue
		}
		if h, ok := raw["host"].(map[string]any); ok {
			row.hasHost = true
			row.host, _ = h["cpu_model"].(string)
			row.goVer, _ = h["go_version"].(string)
		}
		if _, ok := raw["host_caveat"]; ok {
			row.caveat = true
		}
		rows = append(rows, row)
	}
	if len(rows) == 0 {
		fmt.Fprintln(werr, "ndpreport: no usable records")
		return 1
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].pr < rows[j].pr })

	fmt.Fprintf(w, "%-16s %12s %9s %9s %12s %10s  %s\n",
		"record", "ns/op", "step", "vs first", "allocs/op", "MB/op", "host")
	first := rows[0].ns
	for i, r := range rows {
		step := "-"
		if i > 0 {
			step = fmt.Sprintf("%.2fx", rows[i-1].ns/r.ns)
		}
		alloc := "-"
		if r.allocs > 0 {
			alloc = fmt.Sprintf("%.0f", r.allocs)
		}
		mb := "-"
		if r.bytes > 0 {
			mb = fmt.Sprintf("%.1f", r.bytes/1e6)
		}
		host := "(unrecorded)"
		if r.hasHost {
			host = r.host
			if r.goVer != "" {
				host += " / " + r.goVer
			}
		}
		if r.caveat {
			host += "  [host drift vs prior rows — see host_caveat]"
		}
		fmt.Fprintf(w, "%-16s %12.0f %9s %8.2fx %12s %10s  %s\n",
			r.file, r.ns, step, first/r.ns, alloc, mb, host)
	}
	fmt.Fprintln(w, "\nns/op rows come from different machines unless the host column matches;")
	fmt.Fprintln(w, "treat cross-host steps as indicative only. allocs/op is host-independent.")
	return 0
}
