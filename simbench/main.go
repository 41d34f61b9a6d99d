// Command simbench is the simulator's benchmark. It runs one named workload
// (a fixed list of simulation legs) on the Table 2 machine with the serial
// engine, checks every leg, and prints the end-to-end metrics (tracing off)
// or the per-layer metrics (one extra traced pass) by name with unit and
// sample count. The last line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Build and run it from the repository root with
//
//	bash simbench/run.sh --workload dyn-mixed --seed 42 --seconds 10 --trace 0
//
// --seed picks the page placements (Mem.PlacementSeed). A leg's first run,
// and the traced run, use the seed itself; its n-th further run uses a
// placement derived from seed+n, so a leg's mean spans several placements.
// A leg fails on a Verify error, a timeout, unreturned NDP credits, a
// golden-digest mismatch (on placement 42) or a counter mismatch between
// two runs of the same placement. README.md records the workloads, what each
// layer metric should move, and the first measured numbers.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"ndpgpu/internal/config"
	"ndpgpu/internal/stats"
)

// Run-shape constants. The untimed phase runs the workload's legs round
// robin, one whole leg at a time, until --seconds have elapsed and every leg
// has run once; it never starts a leg past legBudget, so a run exits well
// inside 180 s. Every leg sets up setupReps times and runs the last set-up.
const (
	setupReps = 3
	legBudget = 120 * time.Second
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload    = fs.String("workload", "", "workload to run: baseline-suite|dyn-mixed")
		seed        = fs.Int64("seed", goldenSeed, "page-placement seed (Mem.PlacementSeed); the golden digests pin 42")
		seconds     = fs.Int("seconds", 10, "minimum measured time: the legs repeat round robin until it has elapsed")
		trace       = fs.Int("trace", 0, "0: end-to-end metrics; 1: add a traced pass and report per-layer metrics")
		outDir      = fs.String("out", filepath.Join(".bench_build", "simbench"), "directory for the result, spans and CPU profile")
		writeGolden = fs.String("write-golden", "", "run every leg once at the golden seed and write the digests to this file, then exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := config.Default()
	cfg.Parallel = 1
	cfg.Mem.PlacementSeed = *seed

	if *writeGolden != "" {
		if err := regenerateGolden(cfg, *writeGolden); err != nil {
			fmt.Fprintln(stderr, "simbench:", err)
			return 1
		}
		return 0
	}
	wl, ok := findWorkload(*workload)
	if !ok || *trace < 0 || *trace > 1 || *seconds < 1 {
		fmt.Fprintf(stderr, "simbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	golden, err := loadGolden(goldenTable2JSON)
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 1
	}

	b := newBench(cfg, wl, golden, stdout)
	fp := fingerprint()
	fmt.Fprintf(stdout, "simbench workload=%s seed=%d seconds=%d trace=%d host: %s\n", wl.Name, *seed, *seconds, *trace, fp)

	deadline := time.Duration(*seconds) * time.Second
	start := time.Now()
	for i := 0; i < len(wl.Legs) || time.Since(start) < min(deadline, legBudget); i++ {
		b.untimedLeg(wl.Legs[i%len(wl.Legs)])
	}
	e2e := b.endToEnd()

	res := result{Workload: wl.Name, Seed: *seed, Trace: *trace, Host: fp, Legs: legKeys(wl)}
	metrics, units := map[string]float64{}, endToEnd
	for _, d := range endToEnd {
		metrics[d.Name] = e2e[d.Name].Value
	}
	var perLayerMetrics map[string]float64
	if *trace == 1 {
		perLayerMetrics, err = b.tracedPass(*outDir, fmt.Sprintf("%s-seed%d", wl.Name, *seed))
		if err != nil {
			fmt.Fprintln(stderr, "simbench:", err)
			return 1
		}
		metrics, units = perLayerMetrics, perLayer()
		res.TracedWallS = b.tracedWall
		res.Uncovered = b.uncoveredByLeg
	}
	res.Samples = b.legSamples()
	res.Attempted, res.Failed, res.Failures = b.attempted, len(b.failures), b.failures

	b.printTable(e2e, perLayerMetrics)
	res.Metrics = make(map[string]metricValue, len(units))
	for _, d := range units {
		res.Metrics[d.Name] = metricValue{Value: metrics[d.Name], Unit: d.Unit}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if err := writeJSON(filepath.Join(*outDir, fmt.Sprintf("result-%s-seed%d-trace%d.json", wl.Name, *seed, *trace)), res); err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 1
	}
	for _, f := range b.failures {
		fmt.Fprintln(stderr, "simbench: FAIL", f)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// bench holds one run's configuration and everything it has measured.
type bench struct {
	cfg    config.Config
	wl     workloadDef
	golden map[string]map[string]float64 // checked on placement goldenSeed
	stdout io.Writer

	placements []int64 // placement seed of each leg's n-th run; [0] is --seed

	runs      map[string][]legResult // untimed runs of each leg, in order
	attempted int
	failures  []string
	execs     map[string]int                // untimed runs started per leg
	reference map[string]map[string]float64 // first digest per leg@placement

	tracedWall     float64
	uncoveredByLeg map[string]float64
}

func newBench(cfg config.Config, wl workloadDef, golden map[string]map[string]float64, stdout io.Writer) *bench {
	return &bench{cfg: cfg, wl: wl, golden: golden, stdout: stdout,
		placements: []int64{cfg.Mem.PlacementSeed},
		runs:       map[string][]legResult{},
		execs:      map[string]int{},
		reference:  map[string]map[string]float64{},
	}
}

// check counts one leg and records why it failed, if it did: its own error,
// a golden mismatch, or a digest that differs from an earlier run of the
// leg on the same placement.
func (b *bench) check(r legResult, pass string) bool {
	b.attempted++
	err := r.Err
	if err == nil && r.Placement == goldenSeed {
		want, ok := b.golden[r.Key]
		if !ok {
			err = fmt.Errorf("%s: no golden digest", r.Key)
		} else if d := digestDiff(want, r.Digest); d != nil {
			err = fmt.Errorf("%s: golden mismatch: %w", r.Key, d)
		}
	}
	if err == nil {
		key := fmt.Sprintf("%s@%d", r.Key, r.Placement)
		if ref, ok := b.reference[key]; !ok {
			b.reference[key] = r.Digest
		} else if d := digestDiff(ref, r.Digest); d != nil {
			err = fmt.Errorf("%s: counters differ between runs: %w", r.Key, d)
		}
	}
	if err != nil {
		b.failures = append(b.failures, fmt.Sprintf("%s pass: %v", pass, err))
		return false
	}
	return true
}

// placement returns the placement seed of a leg's n-th run: --seed for the
// first, a draw seeded with --seed+n for the others.
func (b *bench) placement(n int) int64 {
	for len(b.placements) <= n {
		b.placements = append(b.placements, rand.New(rand.NewSource(b.placements[0]+int64(len(b.placements)))).Int63())
	}
	return b.placements[n]
}

// untimedLeg runs one leg on the untimed path and records it.
func (b *bench) untimedLeg(l leg) {
	cfg := b.cfg
	cfg.Mem.PlacementSeed = b.placement(b.execs[l.Key()])
	b.execs[l.Key()]++
	r := runLeg(cfg, l, setupReps)
	ok := b.check(r, "untimed")
	if ok && len(b.runs[r.Key]) == 0 {
		fmt.Fprintf(b.stdout, "  %-16s setup %.4fs  run %.3fs  wall %.3fs  sm_cycles %d\n",
			r.Key, median(r.SetupS), r.RunS, r.WallS, r.St.SMCycles)
	}
	if ok {
		b.runs[r.Key] = append(b.runs[r.Key], r)
	}
}

// stat is one end-to-end metric and the fewest per-leg samples behind it.
type stat struct {
	Value float64
	N     int
}

// endToEnd reduces the untimed runs to the end-to-end metrics: each leg's
// mean, summed over the workload's legs (one pass). A leg's runs are
// different placements, and some legs' cost is bimodal over placements
// (KMN under NDP(Dyn) takes ~1.4 s or ~5 s), so the mean over placements is
// steadier than a median of a few draws. Set-up, which does not depend on
// the placement, takes the median over all of a leg's set-ups. A failed leg
// contributes nothing, so failures show in failed_frac, not as speed.
func (b *bench) endToEnd() map[string]stat {
	var wall, setup, run, cycles, instrs, allocB, allocs float64
	n, nSetup := 0, 0
	for _, l := range b.wl.Legs {
		rs := b.runs[l.Key()]
		if len(rs) == 0 {
			continue
		}
		mean := func(f func(legResult) float64) float64 {
			sum := 0.0
			for _, r := range rs {
				sum += f(r)
			}
			return sum / float64(len(rs))
		}
		var setups []float64
		for _, r := range rs {
			setups = append(setups, r.SetupS...)
		}
		wall += mean(func(r legResult) float64 { return r.WallS })
		run += mean(func(r legResult) float64 { return r.RunS })
		allocB += mean(func(r legResult) float64 { return float64(r.AllocB) })
		allocs += mean(func(r legResult) float64 { return float64(r.Allocs) })
		setup += median(setups)
		cycles += mean(func(r legResult) float64 { return float64(r.St.SMCycles) })
		instrs += mean(func(r legResult) float64 { return float64(r.St.IssuedInstrs + r.St.NSUInstrs) })
		if n == 0 || len(rs) < n {
			n = len(rs)
		}
		if nSetup == 0 || len(setups) < nSetup {
			nSetup = len(setups)
		}
	}
	return map[string]stat{
		"wall_s":                   {wall, n},
		"setup_s":                  {setup, nSetup},
		"sim_cycles_per_s":         {ratio(cycles, run), n},
		"sim_instrs_per_s":         {ratio(instrs, run), n},
		"alloc_mb":                 {allocB / 1e6, n},
		"allocs":                   {allocs, n},
		"peak_rss_mb":              {peakRSSMB(), 1},
		"failed_frac":              {ratio(float64(len(b.failures)), float64(b.attempted)), 1},
		"sim.host_ns_per_sm_cycle": {ratio(run*1e9, cycles), n},
	}
}

// legSamples lists every untimed sample of every leg for the result record.
func (b *bench) legSamples() map[string]legSample {
	out := make(map[string]legSample, len(b.runs))
	for k, rs := range b.runs {
		var s legSample
		for _, r := range rs {
			s.SetupS = append(s.SetupS, r.SetupS...)
			s.WallS = append(s.WallS, r.WallS)
			s.RunS = append(s.RunS, r.RunS)
		}
		out[k] = s
	}
	return out
}

// legSample is one leg's untimed samples, in seconds.
type legSample struct {
	SetupS []float64 `json:"setup_s"`
	WallS  []float64 `json:"wall_s"`
	RunS   []float64 `json:"run_s"`
}

// tracedPass runs every leg twice more on the --seed placement: untraced,
// then through the decomposed calls with spans and a CPU profile. Running
// the two back to back lets trace.overhead_s compare runs that share the
// host's conditions. It writes the spans and the profiles under outDir and
// returns the per-layer metrics.
func (b *bench) tracedPass(outDir, stem string) (map[string]float64, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	tr := newTracer()
	sum := stats.New()
	var samples []cpuSample
	energyPJ, overhead := 0.0, 0.0
	b.uncoveredByLeg = map[string]float64{}
	for i, l := range b.wl.Legs {
		u := runLeg(b.cfg, l, 1)
		if !b.check(u, "untraced") {
			continue
		}
		runtime.GC()
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("starting CPU profile: %w", err)
		}
		r := tracedLeg(b.cfg, l, tr, i+1)
		pprof.StopCPUProfile()
		s, err := parseCPUProfile(prof.Bytes())
		if err != nil {
			return nil, err
		}
		samples = append(samples, s...)
		if err := os.WriteFile(filepath.Join(outDir, fmt.Sprintf("cpu-%s-leg%d.pprof", stem, i+1)), prof.Bytes(), 0o644); err != nil {
			return nil, err
		}
		if !b.check(r, "traced") {
			continue
		}
		b.tracedWall += r.WallS
		overhead += r.WallS - u.WallS
		stats.FoldInto(sum, r.St)
		energyPJ += r.Digest["EnergyTotalPJ"]
	}

	out := counts(sum, energyPJ, b.cfg)
	for k, v := range cpuMetrics(samples) {
		out[k] = v
	}
	for _, n := range spanNames {
		out[n] = 0
	}
	for k, v := range tr.spanTotals() {
		if k != "leg" {
			out[k] = v
		}
	}
	var legNS, uncoveredNS float64
	unc := tr.uncovered()
	for _, s := range tr.spans {
		if s.Parent == 0 {
			legNS += float64(s.DurNS)
			uncoveredNS += unc[s.Leg] * float64(s.DurNS)
			b.uncoveredByLeg[b.wl.Legs[s.Leg-1].Key()] = unc[s.Leg]
			out["trace.uncovered_frac_max"] = max(out["trace.uncovered_frac_max"], unc[s.Leg])
		}
	}
	out["trace.uncovered_frac"] = ratio(uncoveredNS, legNS)
	out["trace.overhead_s"] = overhead
	out["sim.host_ns_per_sm_cycle"] = b.endToEnd()["sim.host_ns_per_sm_cycle"].Value
	return out, writeJSON(filepath.Join(outDir, "spans-"+stem+".json"), tr.spans)
}

// printTable prints the human-readable report: every end-to-end metric
// with unit and sample count, then every per-layer metric when there are any.
func (b *bench) printTable(e2e map[string]stat, per map[string]float64) {
	fmt.Fprintf(b.stdout, "end-to-end (sum over %d legs of each leg's mean; n = fewest samples of any leg):\n", len(b.wl.Legs))
	for _, d := range append(endToEnd, metricDef{"failed_frac", "frac", "lower"}) {
		s := e2e[d.Name]
		fmt.Fprintf(b.stdout, "  %-20s %14.6g %-9s n=%d\n", d.Name, s.Value, d.Unit, s.N)
	}
	if per == nil {
		return
	}
	fmt.Fprintln(b.stdout, "per-layer (one traced pass):")
	for _, d := range perLayer() {
		fmt.Fprintf(b.stdout, "  %-30s %16.6g %s\n", d.Name, per[d.Name], d.Unit)
	}
}

// regenerateGolden runs every leg of every workload once at cfg (which must
// carry the golden seed) and writes the digests as JSON to path.
func regenerateGolden(cfg config.Config, path string) error {
	if cfg.Mem.PlacementSeed != goldenSeed {
		return fmt.Errorf("golden digests are pinned at seed %d", goldenSeed)
	}
	out := map[string]map[string]float64{}
	for _, w := range benchWorkloads {
		for _, l := range w.Legs {
			if _, done := out[l.Key()]; done {
				continue
			}
			r := runLeg(cfg, l, 1)
			if r.Err != nil {
				return r.Err
			}
			out[l.Key()] = r.Digest
		}
	}
	return writeJSON(path, out)
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the full record a run writes beside its result line.
type result struct {
	Workload    string                 `json:"workload"`
	Seed        int64                  `json:"seed"`
	Trace       int                    `json:"trace"`
	Host        hostInfo               `json:"host"`
	Legs        []string               `json:"legs"`
	Correct     bool                   `json:"correct"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	Failures    []string               `json:"failures,omitempty"`
	Samples     map[string]legSample   `json:"untimed_samples"`
	TracedWallS float64                `json:"traced_pass_wall_s,omitempty"`
	Uncovered   map[string]float64     `json:"uncovered_frac_by_leg,omitempty"`
	Metrics     map[string]metricValue `json:"metrics"`
}

// hostInfo fingerprints the machine a result was measured on.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func (h hostInfo) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d GOMAXPROCS=%d go=%s", h.CPU, h.NProc, h.GOMAXPROCS, h.GoVersion)
}

func fingerprint() hostInfo {
	h := hostInfo{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// peakRSSMB is the process's peak resident set in MB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func workloadNames() string {
	names := make([]string, len(benchWorkloads))
	for i, w := range benchWorkloads {
		names[i] = w.Name
	}
	return strings.Join(names, "|")
}

func legKeys(w workloadDef) []string {
	keys := make([]string, len(w.Legs))
	for i, l := range w.Legs {
		keys[i] = l.Key()
	}
	return keys
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
