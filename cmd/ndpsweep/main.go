// Command ndpsweep regenerates the paper's tables and figures.
//
// Usage:
//
//	ndpsweep -exp all
//	ndpsweep -exp fig9 -scale 1
//
// Experiments: table1 table2 fig5 fig7 fig8 fig9 fig10 fig11 inval
// morecompute nsufreq rocache topology overhead backends all.
//
// backends is the cross-architecture sweep: every workload under every
// golden mode on each architecture backend (paper, coda, coda-ft, ndpage —
// see README "Architecture backends"), reporting runtime relative to the
// paper design and a verdict on unrestricted placement vs co-location.
// With -csvdir it also writes backends.csv.
//
// -cache DIR memoizes every simulated run in a checksummed journal under
// DIR, keyed by the content digest of the run's resolved configuration,
// workload, mode and scale. Re-running a sweep with the same -cache DIR
// serves already-simulated points from the journal; the footer reports how
// many runs were simulated and how many were cache hits. Each simulator
// build gets its own subdirectory (named by the executable's SHA-256), so
// a rebuilt binary starts cold.
//
// A failing experiment no longer aborts the sweep: the remaining
// experiments still run (dependents of the failed one are skipped), a
// FAILURES section lists every error, and the exit status is nonzero. A
// run that panics is reported as its experiment's error. An unknown -exp
// name or an unusable -cache directory exits with status 2.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"ndpgpu/internal/config"
	"ndpgpu/internal/experiments"
	"ndpgpu/internal/fault"
	"ndpgpu/internal/prof"
	"ndpgpu/internal/report"
	"ndpgpu/internal/sim"
)

// writeCSV writes a table into dir/name.
func writeCSV(dir, name string, t *report.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	return t.WriteCSV(f)
}

// leafExp is one standalone design-space experiment with no dependents; the
// table is package-level (rather than inlined in run) so tests can append a
// deliberately failing entry and exercise the FAILURES path end to end.
type leafExp struct {
	name string
	fn   func(io.Writer, int) error
}

var leafExps = []leafExp{
	{"morecompute", experiments.MoreCompute},
	{"nsufreq", experiments.NSUFreq},
	{"rocache", experiments.ROCacheAblation},
	{"topology", experiments.TopologyAblation},
}

// knownExps returns every accepted -exp value, sorted.
func knownExps() []string {
	names := []string{"all", "table1", "table2", "overhead", "fig5",
		"fig7", "fig8", "fig9", "fig10", "fig11", "inval", "backends"}
	for _, l := range leafExps {
		names = append(names, l.name)
	}
	sort.Strings(names)
	return names
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole sweep behind a testable seam: parse args, run the selected
// experiments, and return the process exit status (0 success, 1 experiment
// failures, 2 usage errors).
func run(args []string, w, werr io.Writer) int {
	fs := flag.NewFlagSet("ndpsweep", flag.ContinueOnError)
	fs.SetOutput(werr)
	var (
		exp      = fs.String("exp", "all", "experiment to run (see command doc)")
		scale    = fs.Int("scale", 1, "problem-size scale factor")
		audit    = fs.Bool("audit", false, "preflight the invariant audit suite before the sweep")
		faults   = fs.String("faults", "", "fault schedule applied to every run (see README)")
		csvDir   = fs.String("csvdir", "", "also write fig7/fig9 speedups as CSV into this directory")
		jobs     = fs.Int("j", runtime.GOMAXPROCS(0), "concurrent simulations per experiment")
		cacheDir = fs.String("cache", "", "memoize runs in this directory and serve repeats from it")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file on exit")
		mtxProf  = fs.String("mutexprofile", "", "write a mutex-contention profile to this file on exit")
		blkProf  = fs.String("blockprofile", "", "write a blocking profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	valid := false
	for _, n := range knownExps() {
		if *exp == n {
			valid = true
			break
		}
	}
	if !valid {
		fmt.Fprintf(werr, "ndpsweep: unknown experiment %q (valid: %s)\n",
			*exp, strings.Join(knownExps(), " "))
		return 2
	}

	stopProf, err := prof.StartOpts(prof.Options{
		CPU: *cpuProf, Mem: *memProf, Mutex: *mtxProf, Block: *blkProf})
	if err != nil {
		fmt.Fprintln(werr, "ndpsweep:", err)
		return 1
	}
	defer stopProf()
	experiments.Jobs = *jobs

	if *cacheDir != "" {
		closeCache, err := experiments.UseCache(*cacheDir)
		if err != nil {
			fmt.Fprintln(werr, "ndpsweep: -cache:", err)
			return 2
		}
		defer func() {
			if err := closeCache(); err != nil {
				fmt.Fprintln(werr, "ndpsweep: -cache:", err)
			}
		}()
	}

	cfg := config.Default()
	if *faults != "" {
		fc, err := fault.Parse(*faults, cfg.NumHMCs, cfg.HMC.NumVaults)
		if err != nil {
			fmt.Fprintln(werr, "ndpsweep: bad -faults schedule:", err)
			return 2
		}
		cfg.Fault = fc
	}
	start := time.Now()

	need := func(names ...string) bool {
		if *exp == "all" {
			return true
		}
		for _, n := range names {
			if *exp == n {
				return true
			}
		}
		return false
	}

	// check records a per-experiment error without aborting the sweep, so
	// a single broken leg cannot hide the results of every later experiment.
	// It returns false on error; callers use that to skip dependents.
	var failures []string
	check := func(name string, err error) bool {
		if err == nil {
			return true
		}
		fmt.Fprintf(werr, "ndpsweep: %s: %v\n", name, err)
		failures = append(failures, fmt.Sprintf("%s: %v", name, err))
		return false
	}
	skip := func(names ...string) {
		for _, n := range names {
			if need(n) {
				failures = append(failures, n+": skipped (dependency failed)")
			}
		}
	}

	// Preflight: refuse to regenerate paper numbers from a simulator that
	// violates its own invariants or diverges from the reference interpreter.
	if *audit {
		bad := 0
		n := 0
		for _, r := range sim.RunAuditSuite(sim.AuditConfig(), *scale, nil) {
			n++
			if !r.Ok() {
				bad++
				detail := r.FirstBad
				if r.Err != nil {
					detail = r.Err.Error()
				} else if !r.MemMatch && detail == "" {
					detail = "memory differs from the reference interpreter"
				}
				fmt.Fprintf(werr, "ndpsweep: audit %s/%s: %s\n", r.Workload, r.Mode, detail)
			}
		}
		if bad > 0 {
			fmt.Fprintf(werr, "ndpsweep: audit preflight: %d of %d legs failed\n", bad, n)
			return 1
		}
		fmt.Fprintf(w, "[audit preflight: %d legs clean]\n", n)
	}

	if need("table1") {
		check("table1", experiments.Table1(w, cfg, *scale))
	}
	if need("table2") {
		experiments.Table2(w, cfg)
	}
	if need("overhead") {
		experiments.Overhead(w, cfg)
	}
	if need("fig5") {
		experiments.Figure5(w)
	}
	if need("fig7", "fig8") {
		f7, err := experiments.Figure7(w, cfg, *scale)
		if check("fig7", err) {
			if need("fig8") {
				experiments.Figure8(w, f7)
			}
			if *csvDir != "" {
				t := report.New("Figure 7 speedups over Baseline", "workload", "morecore", "naive")
				for _, wl := range experiments.Workloads() {
					base := f7.Rows[wl]["Baseline"]
					t.AddFloats(wl,
						f7.Rows[wl]["Baseline_MoreCore"].Speedup(base),
						f7.Rows[wl]["NaiveNDP"].Speedup(base))
				}
				check("fig7.csv", writeCSV(*csvDir, "fig7.csv", t))
			}
		} else {
			skip("fig8")
		}
	}
	if need("fig9", "fig10", "fig11", "inval") {
		f9, err := experiments.Figure9(w, cfg, *scale)
		if check("fig9", err) {
			if *csvDir != "" {
				cols := append([]string{"workload"}, f9.Modes[1:]...)
				t := report.New("Figure 9 speedups over Baseline", cols...)
				for _, wl := range experiments.Workloads() {
					base := f9.Rows[wl]["Baseline"]
					vals := make([]float64, 0, len(f9.Modes)-1)
					for _, mode := range f9.Modes[1:] {
						vals = append(vals, f9.Rows[wl][mode].Speedup(base))
					}
					t.AddFloats(wl, vals...)
				}
				check("fig9.csv", writeCSV(*csvDir, "fig9.csv", t))
			}
			if need("fig10") {
				experiments.Figure10(w, f9)
			}
			if need("fig11") {
				experiments.Figure11(w, f9, cfg)
			}
			if need("inval") {
				experiments.InvalOverhead(w, f9)
			}
		} else {
			skip("fig10", "fig11", "inval")
		}
	}
	if need("backends") {
		bk, err := experiments.Backends(w, cfg, *scale)
		if check("backends", err) && *csvDir != "" {
			cols := append([]string{"workload", "mode"}, experiments.BackendArchs...)
			t := report.New("Cross-architecture runtime (us)", cols...)
			for _, mode := range bk.Modes {
				for _, wl := range experiments.Workloads() {
					row := []string{wl, mode}
					for _, arch := range bk.Archs {
						row = append(row, fmt.Sprintf("%.3f",
							float64(bk.Get(wl, arch, mode).TimePS)/1e6))
					}
					t.AddRow(row...)
				}
			}
			check("backends.csv", writeCSV(*csvDir, "backends.csv", t))
		}
	}
	for _, l := range leafExps {
		if need(l.name) {
			check(l.name, l.fn(w, *scale))
		}
	}
	runs, wall, max, p50 := experiments.RunTallyDetail()
	_, hits := experiments.RunTally()
	switch {
	case runs > 0:
		fmt.Fprintf(w, "\n[%s in %.1fs: %d runs simulated, %d cache hits, %.1fs run-wall total, %.2fs/run avg, %.2fs max, %.2fs p50, -j %d]\n",
			*exp, time.Since(start).Seconds(), runs, hits, wall.Seconds(),
			wall.Seconds()/float64(runs), max.Seconds(), p50.Seconds(), *jobs)
	case hits > 0:
		fmt.Fprintf(w, "\n[%s in %.1fs: 0 runs simulated, %d cache hits]\n",
			*exp, time.Since(start).Seconds(), hits)
	default:
		fmt.Fprintf(w, "\n[%s in %.1fs]\n", *exp, time.Since(start).Seconds())
	}
	if len(failures) > 0 {
		fmt.Fprintf(w, "\nFAILURES (%d):\n", len(failures))
		for _, f := range failures {
			fmt.Fprintf(w, "  %s\n", f)
		}
		return 1
	}
	return 0
}
