package serve_test

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"ndpgpu/internal/experiments"
	"ndpgpu/internal/sim"
)

// TestServedDigestsMatchGolden is the deterministic-cache property test:
// "cached digest == fresh run digest". A cold pass over every tier-1
// workload x golden mode through the run cache (ndpsweep -cache) must
// produce digests byte-identical to the committed regression file
// (testdata/golden_digests.json). Reopening the same cache directory — a
// new process, as far as the journal can tell — and repeating the pass
// must simulate nothing and serve the same digests from the journal.
func TestServedDigestsMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full golden matrix on the real simulator")
	}

	data, err := os.ReadFile("../../testdata/golden_digests.json")
	if err != nil {
		t.Fatalf("reading golden digests: %v", err)
	}
	var golden map[string]map[string]float64
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}

	// The golden file is computed with the audit configuration at scale 1
	// (cmd/ndpreport golden).
	cfg := sim.AuditConfig()
	modes := []sim.Mode{sim.Baseline, sim.NaiveNDP, sim.DynNDP}
	dir := t.TempDir()

	pass := func(name string) (simulated, hits int64) {
		t.Helper()
		closeCache, err := experiments.UseCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := closeCache(); err != nil {
				t.Fatal(err)
			}
		}()
		start := time.Now()
		sim0, hits0 := experiments.RunTally()
		for _, wl := range experiments.Workloads() {
			for _, m := range modes {
				want, ok := golden[experiments.GoldenKey(wl, m.Name)]
				if !ok {
					t.Fatalf("golden file has no entry for %s|%s", wl, m.Name)
				}
				run := experiments.RunOne(cfg, wl, m, 1)
				if run.Err != nil {
					t.Fatalf("%s pass %s/%s: %v", name, wl, m.Name, run.Err)
				}
				d := run.Stats.Digest()
				d["TimePS"] = float64(run.TimePS)
				d["EnergyTotalPJ"] = run.Energy.Total()
				diffDigest(t, name+" "+wl+"/"+m.Name, d, want)
			}
		}
		sim1, hits1 := experiments.RunTally()
		t.Logf("%s pass: %d simulated, %d cache hits in %v", name, sim1-sim0, hits1-hits0, time.Since(start))
		return sim1 - sim0, hits1 - hits0
	}

	legs := int64(len(experiments.Workloads()) * len(modes))
	if simulated, hits := pass("cold"); simulated != legs || hits != 0 {
		t.Fatalf("cold pass: %d simulated, %d cache hits; want %d and 0", simulated, hits, legs)
	}
	if simulated, hits := pass("warm"); simulated != 0 || hits != legs {
		t.Fatalf("warm pass: %d simulated, %d cache hits; want 0 and %d", simulated, hits, legs)
	}
}

// diffDigest asserts two digests are identical, reporting every divergent
// counter rather than the first.
func diffDigest(t *testing.T, leg string, got, want map[string]float64) {
	t.Helper()
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Errorf("%s: digest missing %s", leg, k)
			continue
		}
		if g != w {
			t.Errorf("%s: %s = %v, want %v", leg, k, g, w)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: digest has unexpected key %s", leg, k)
		}
	}
}
