package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"testing"

	"ndpgpu/internal/config"
	"ndpgpu/internal/sim"
	"ndpgpu/internal/stats"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// smoke is the cheapest leg (MINIFE on the baseline, ~0.2 s) as a one-leg
// workload on the benchmark's machine.
var smoke = workloadDef{Name: "smoke", Legs: legsOf(sim.Baseline, "MINIFE")}

func smokeBench(t *testing.T) *bench {
	t.Helper()
	g, err := loadGolden(goldenTable2JSON)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default()
	cfg.Parallel = 1
	return newBench(cfg, smoke, g, io.Discard)
}

// TestSmokeLeg runs the smoke leg through the untimed and the traced path:
// both must match the leg's golden digest (so the decomposed calls run the
// same program as sim.Launch), and every metric must be emitted under a
// valid name with a unit.
func TestSmokeLeg(t *testing.T) {
	b := smokeBench(t)
	b.untimedLeg(smoke.Legs[0])
	b.untimedLeg(smoke.Legs[0]) // a second run, on a derived placement
	per, err := b.tracedPass(t.TempDir(), "smoke")
	if err != nil {
		t.Fatal(err)
	}
	if len(b.failures) != 0 || b.attempted != 4 { // two untimed, one untraced, one traced
		t.Fatalf("attempted %d, failures %v", b.attempted, b.failures)
	}

	e2e := b.endToEnd()
	for _, d := range endToEnd {
		s, ok := e2e[d.Name]
		if !ok || !(s.Value > 0) || s.N < 1 {
			t.Errorf("end-to-end %s: %+v (present %v), want a positive value with samples", d.Name, s, ok)
		}
	}
	cpu := 0.0
	for _, d := range perLayer() {
		v, ok := per[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("per-layer %s = %v (present %v)", d.Name, v, ok)
		}
		if d.Unit == "s" && len(d.Name) > 6 && d.Name[len(d.Name)-6:] == ".cpu_s" {
			cpu += v
		}
	}
	if cpu <= 0 {
		t.Errorf("CPU profile attributed no time to any layer")
	}
	if per["gpu.sm_cycles"] != b.golden["MINIFE|Baseline"]["SMCycles"] {
		t.Errorf("gpu.sm_cycles = %v, golden %v", per["gpu.sm_cycles"], b.golden["MINIFE|Baseline"]["SMCycles"])
	}
	if u := per["trace.uncovered_frac_max"]; u < 0 || u > 0.05 {
		t.Errorf("spans leave %.3f of the leg uncovered", u)
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer()} {
		seen := map[string]bool{}
		for _, d := range defs {
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || seen[d.Name] ||
				(d.Better != "lower" && d.Better != "higher") {
				t.Errorf("bad metric definition %+v", d)
			}
			seen[d.Name] = true
		}
	}
}

// TestGoldenGateCatchesChange proves a leg whose statistics differ from the
// golden digest by one count fails, and that off the golden placement a leg
// whose counters differ between two runs of the same placement fails too.
func TestGoldenGateCatchesChange(t *testing.T) {
	b := smokeBench(t)
	bump := func(r legResult) legResult {
		d := make(map[string]float64, len(r.Digest))
		for k, v := range r.Digest {
			d[k] = v
		}
		d["DRAMReads"]++
		r.Digest = d
		return r
	}
	r := runLeg(b.cfg, smoke.Legs[0], 1)
	if !b.check(r, "golden") {
		t.Fatalf("unmodified leg failed: %v", b.failures)
	}
	if b.check(bump(r), "golden") {
		t.Fatal("a one-count change passed the golden gate")
	}
	cfg := b.cfg
	cfg.Mem.PlacementSeed = 7
	r = runLeg(cfg, smoke.Legs[0], 1)
	if !b.check(r, "first") {
		t.Fatalf("leg off the golden placement failed: %v", b.failures)
	}
	if b.check(bump(r), "repeat") {
		t.Fatal("counters that differ between runs passed")
	}
	if len(b.failures) != 2 || b.attempted != 4 {
		t.Fatalf("attempted %d, failures %v; want 4 and 2", b.attempted, b.failures)
	}
}

// TestDigestMatchesRepoGolden ties the benchmark's digest to the repository's
// golden file: on the 4-SM audit machine that file pins, the smoke leg's
// digest equals its MINIFE|Baseline entry.
func TestDigestMatchesRepoGolden(t *testing.T) {
	data, err := os.ReadFile("../testdata/golden_digests.json")
	if err != nil {
		t.Fatal(err)
	}
	g, err := loadGolden(data)
	if err != nil {
		t.Fatal(err)
	}
	r := runLeg(sim.AuditConfig(), smoke.Legs[0], 1)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if err := digestDiff(g[smoke.Legs[0].Key()], r.Digest); err != nil {
		t.Fatal(err)
	}
}

// TestRatiosWithZeroDenominators: a derived rate over nothing counted reads
// 0, never NaN or Inf (JSON cannot carry either).
func TestRatiosWithZeroDenominators(t *testing.T) {
	cfg := config.Default()
	empty := stats.New()
	some := stats.New()
	some.CreditStalls, some.IssuedInstrs = 10, 4
	some.L2.Hits, some.L2.Accesses = 3, 4
	some.AckLatencySumPS, some.AckLatencyCount = 5000, 2
	rejectsOnly := stats.New()
	rejectsOnly.CreditStalls = 7 // rejects but nothing issued
	for _, tc := range []struct {
		st     *stats.Stats
		metric string
		want   float64
	}{
		{empty, "core.credit_rejects_per_issue", 0},
		{empty, "cache.l2_hit_rate", 0},
		{empty, "noc.ack_latency_ns_avg", 0},
		{empty, "cache.l1d_hit_rate", 0},
		{empty, "core.offload_frac", 0},
		{empty, "dram.row_hit_rate", 0},
		{empty, "nsu.occupancy", 0},
		{rejectsOnly, "core.credit_rejects_per_issue", 0},
		{some, "core.credit_rejects_per_issue", 2.5},
		{some, "cache.l2_hit_rate", 0.75},
		{some, "noc.ack_latency_ns_avg", 2.5},
	} {
		if got := counts(tc.st, 0, cfg)[tc.metric]; got != tc.want {
			t.Errorf("%s = %v, want %v", tc.metric, got, tc.want)
		}
	}
	for name, v := range counts(empty, 0, cfg) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v on empty statistics", name, v)
		}
	}
	if len(counts(empty, 0, cfg)) != len(countDefs) {
		t.Errorf("counts emits %d metrics, countDefs lists %d", len(counts(empty, 0, cfg)), len(countDefs))
	}
}

func TestLayerOf(t *testing.T) {
	for sym, want := range map[string]string{
		"ndpgpu/internal/gpu.(*SM).coalesce":                                 "gpu",
		"ndpgpu/internal/cache.(*Cache).Access":                              "cache",
		"ndpgpu/internal/sim.(*Machine).done":                                "other",
		"runtime.mallocgc":                                                   "runtime",
		"internal/runtime/maps.(*Map).getWithKey":                            "runtime",
		"sort.insertionSort_func":                                            "other",
		"slices.pdqsortCmpFunc[go.shape.struct { X ndpgpu/internal/noc.T }]": "other",
	} {
		if got := layerOf(sym); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", sym, got, want)
		}
	}
}

// TestCatalogMatchesManifest keeps BENCHMARK.json and the code in step:
// the same workloads, and the same metric names, units and directions.
func TestCatalogMatchesManifest(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(benchWorkloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, code has %d", len(m.Workloads), len(benchWorkloads))
	}
	for i, w := range m.Workloads {
		if w.Name != benchWorkloads[i].Name {
			t.Errorf("workload %d: manifest %q, code %q", i, w.Name, benchWorkloads[i].Name)
		}
	}
	for _, c := range []struct {
		what       string
		got, wantt []metricDef
	}{{"end_to_end", m.EndToEnd, endToEnd}, {"per_layer", m.PerLayer, perLayer()}} {
		if len(c.got) != len(c.wantt) {
			t.Errorf("%s: manifest lists %d metrics, code %d", c.what, len(c.got), len(c.wantt))
			continue
		}
		for i := range c.got {
			if c.got[i] != c.wantt[i] {
				t.Errorf("%s[%d]: manifest %+v, code %+v", c.what, i, c.got[i], c.wantt[i])
			}
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "dyn-mixed", "--trace", "2"},
		{"--workload", "dyn-mixed", "--seconds", "0"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}
