package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"ndpgpu/internal/analyzer"
	"ndpgpu/internal/backend"
	"ndpgpu/internal/config"
	"ndpgpu/internal/core"
	"ndpgpu/internal/energy"
	"ndpgpu/internal/sim"
	"ndpgpu/internal/stats"
	"ndpgpu/internal/vm"
	"ndpgpu/internal/workloads"
)

// goldenSeed is the placement seed the golden digests pin.
const goldenSeed = 42

// goldenTable2JSON pins every leg of every benchmark workload on the Table 2
// machine (config.Default) at goldenSeed: Stats.Digest plus TimePS and
// EnergyTotalPJ, the same digest testdata/golden_digests.json holds for the
// 4-SM audit machine. Regenerate with -write-golden after a change that is
// meant to alter simulated statistics.
//
//go:embed golden_table2.json
var goldenTable2JSON []byte

func loadGolden(data []byte) (map[string]map[string]float64, error) {
	var g map[string]map[string]float64
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("parsing golden digests: %w", err)
	}
	return g, nil
}

// legResult is one completed (or failed) leg.
type legResult struct {
	Key       string
	Placement int64     // Mem.PlacementSeed of the run
	SetupS    []float64 // every set-up sample: vm.New + workloads.Build + sim.Launch
	WallS     float64   // set-up through energy.Compute, once
	RunS      float64   // Machine.Run alone
	AllocB    uint64    // heap bytes allocated by the leg
	Allocs    uint64    // heap objects allocated by the leg
	St        *stats.Stats
	Digest    map[string]float64
	Err       error
}

// digestOf is the golden-digest form of a finished run.
func digestOf(res *sim.Result, e stats.EnergyBreakdown) map[string]float64 {
	d := res.Stats.Digest()
	d["TimePS"] = float64(res.TimePS)
	d["EnergyTotalPJ"] = e.Total()
	return d
}

// digestDiff reports the first key (in sorted order) where two digests
// differ, or nil when they are identical.
func digestDiff(want, got map[string]float64) error {
	keys := make([]string, 0, len(want)+len(got))
	for k := range want {
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		w, wok := want[k]
		g, gok := got[k]
		if wok != gok || w != g {
			return fmt.Errorf("%s: want %v (present %v), got %v (present %v)", k, w, wok, g, gok)
		}
	}
	return nil
}

// setUp builds the leg's workload into fresh memory and launches a machine
// for it: the untimed path's set-up, exactly as experiments.RunOneWith does.
func setUp(cfg config.Config, l leg) (*workloads.Workload, *sim.Machine, error) {
	mem := vm.New(cfg)
	w, err := workloads.Build(l.Abbr, mem, 1)
	if err != nil {
		return nil, nil, err
	}
	m, err := sim.Launch(cfg, w.Kernel, mem, l.Mode)
	return w, m, err
}

// runLeg runs one leg on the untimed path: setupReps set-ups are timed (the
// last one's machine runs), then Machine.Run, Workload.Verify and
// energy.Compute. Allocation counts cover the running set-up onwards.
func runLeg(cfg config.Config, l leg, setupReps int) legResult {
	r := legResult{Key: l.Key(), Placement: cfg.Mem.PlacementSeed}
	for i := 1; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		if _, _, err := setUp(cfg, l); err != nil {
			r.Err = fmt.Errorf("%s: set-up: %w", r.Key, err)
			return r
		}
		r.SetupS = append(r.SetupS, time.Since(t0).Seconds())
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)

	t0 := time.Now()
	w, m, err := setUp(cfg, l)
	if err != nil {
		r.Err = fmt.Errorf("%s: set-up: %w", r.Key, err)
		return r
	}
	r.SetupS = append(r.SetupS, time.Since(t0).Seconds())
	t1 := time.Now()
	res, err := m.Run(0)
	r.RunS = time.Since(t1).Seconds()
	if err != nil {
		r.Err = fmt.Errorf("%s: %w", r.Key, err)
		return r
	}
	if err := w.Verify(); err != nil {
		r.Err = fmt.Errorf("%s: functional check: %w", r.Key, err)
		return r
	}
	e := energy.Compute(res.Stats, cfg, energy.DefaultParams(), l.Mode.NDP)
	r.WallS = time.Since(t0).Seconds()

	runtime.ReadMemStats(&after)
	r.AllocB = after.TotalAlloc - before.TotalAlloc
	r.Allocs = after.Mallocs - before.Mallocs
	r.St = res.Stats
	r.Digest = digestOf(res, e)
	return r
}

// tracedLeg runs one leg through the calls sim.Launch makes, one span each,
// under a root span for the whole leg. Machine.Run carries the pprof label
// span=sim.run, so the CPU profile can be cut to the simulation proper.
func tracedLeg(cfg config.Config, l leg, tr *tracer, legID int) legResult {
	r := legResult{Key: l.Key(), Placement: cfg.Mem.PlacementSeed}
	root := tr.begin("leg", 0, legID)
	defer tr.end(root)
	span := func(name string, f func() error) error {
		s := tr.begin(name, root, legID)
		defer tr.end(s)
		return f()
	}
	fail := func(what string, err error) legResult {
		r.Err = fmt.Errorf("%s: %s: %w", r.Key, what, err)
		return r
	}

	t0 := time.Now()
	mem := vm.New(cfg)
	var w *workloads.Workload
	if err := span("workloads.build_s", func() (err error) {
		w, err = workloads.Build(l.Abbr, mem, 1)
		return err
	}); err != nil {
		return fail("build", err)
	}
	mcfg := cfg
	if err := span("backend.place_s", func() error {
		b, err := backend.For(cfg.Arch.Backend)
		if err != nil {
			return err
		}
		mcfg = b.Apply(cfg)
		return b.PreparePlacement(mcfg, w.Kernel, mem)
	}); err != nil {
		return fail("placement", err)
	}
	var prog *analyzer.Program
	if err := span("analyzer.program_s", func() (err error) {
		prog, err = sim.BuildProgram(w.Kernel, l.Mode)
		return err
	}); err != nil {
		return fail("program", err)
	}
	var dec core.Decider
	_ = span("core.decider_s", func() error {
		dec = sim.NewDecider(mcfg, prog, l.Mode)
		return nil
	})
	var m *sim.Machine
	if err := span("sim.assemble_s", func() (err error) {
		m, err = sim.New(mcfg, prog, mem, dec)
		return err
	}); err != nil {
		return fail("assemble", err)
	}
	var res *sim.Result
	if err := span("sim.run_s", func() (err error) {
		pprof.Do(context.Background(), pprof.Labels("span", "sim.run"), func(context.Context) {
			res, err = m.Run(0)
		})
		return err
	}); err != nil {
		return fail("run", err)
	}
	if err := span("workloads.verify_s", w.Verify); err != nil {
		return fail("functional check", err)
	}
	var e stats.EnergyBreakdown
	_ = span("energy.compute_s", func() error {
		e = energy.Compute(res.Stats, cfg, energy.DefaultParams(), l.Mode.NDP)
		return nil
	})
	r.WallS = time.Since(t0).Seconds()
	r.St = res.Stats
	r.Digest = digestOf(res, e)
	return r
}
