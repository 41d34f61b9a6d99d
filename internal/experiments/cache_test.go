package experiments

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"ndpgpu/internal/config"
	"ndpgpu/internal/sim"
)

// openTestCache installs a run cache for one build identity and closes it
// when the test ends (or earlier, through the returned function).
func openTestCache(t *testing.T, dir, id string) func() {
	t.Helper()
	closeCache, err := useCache(dir, id)
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	done := func() {
		if closed {
			return
		}
		closed = true
		if err := closeCache(); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(done)
	return done
}

// tallyDelta runs fn and reports how many runs it simulated and how many
// the cache answered.
func tallyDelta(fn func()) (simulated, hits int64) {
	s0, h0 := RunTally()
	fn()
	s1, h1 := RunTally()
	return s1 - s0, h1 - h0
}

func mustRun(t *testing.T, cfg config.Config, abbr string, mode sim.Mode) *Run {
	t.Helper()
	r := RunOne(cfg, abbr, mode, 1)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	return r
}

// sameRun requires two runs of one leg to agree on everything a figure can
// read: statistics bundle, simulated time and energy.
func sameRun(t *testing.T, what string, got, want *Run) {
	t.Helper()
	if !reflect.DeepEqual(got.Stats, want.Stats) {
		t.Errorf("%s: statistics bundle differs", what)
	}
	if got.TimePS != want.TimePS || got.Energy != want.Energy {
		t.Errorf("%s: TimePS %d energy %v, want %d and %v",
			what, got.TimePS, got.Energy.Total(), want.TimePS, want.Energy.Total())
	}
	if got.Workload != want.Workload || got.Mode != want.Mode {
		t.Errorf("%s: run %s/%s, want %s/%s", what, got.Workload, got.Mode, want.Workload, want.Mode)
	}
}

// TestRunCacheHitMiss: the first run of a leg simulates and journals it; a
// repeat in the same process and a repeat after reopening the directory are
// both hits that reproduce the cold run exactly.
func TestRunCacheHitMiss(t *testing.T) {
	cfg := sim.AuditConfig()
	dir := t.TempDir()
	done := openTestCache(t, dir, "build-a")

	var cold, warm *Run
	if s, h := tallyDelta(func() { cold = mustRun(t, cfg, "VADD", sim.DynNDP) }); s != 1 || h != 0 {
		t.Fatalf("cold run: %d simulated, %d hits; want 1 and 0", s, h)
	}
	if s, h := tallyDelta(func() { warm = mustRun(t, cfg, "VADD", sim.DynNDP) }); s != 0 || h != 1 {
		t.Fatalf("repeat: %d simulated, %d hits; want 0 and 1", s, h)
	}
	sameRun(t, "in-process hit", warm, cold)

	// A different leg is a different key.
	if s, _ := tallyDelta(func() { mustRun(t, cfg, "VADD", sim.Baseline) }); s != 1 {
		t.Fatalf("a different mode simulated %d runs, want 1", s)
	}

	done()
	openTestCache(t, dir, "build-a")
	if s, h := tallyDelta(func() { warm = mustRun(t, cfg, "VADD", sim.DynNDP) }); s != 0 || h != 1 {
		t.Fatalf("after reopen: %d simulated, %d hits; want 0 and 1", s, h)
	}
	sameRun(t, "journal hit", warm, cold)
}

// TestRunCacheErrorNotMemoized: a failed run is returned as it is and never
// journaled, so the next attempt simulates again.
func TestRunCacheErrorNotMemoized(t *testing.T) {
	dir := t.TempDir()
	done := openTestCache(t, dir, "build-a")
	calls := 0
	cache.simulate = func(cfg config.Config, abbr string, mode sim.Mode, scale int) *Run {
		calls++
		return &Run{Workload: abbr, Mode: mode.Name, Cfg: cfg, Err: errors.New("injected failure")}
	}
	for i := 0; i < 2; i++ {
		if r := RunOne(sim.AuditConfig(), "VADD", sim.DynNDP, 1); r.Err == nil || !strings.Contains(r.Err.Error(), "injected") {
			t.Fatalf("attempt %d: err = %v, want the injected failure", i, r.Err)
		}
	}
	if calls != 2 {
		t.Fatalf("simulated %d times, want 2: the error was memoized", calls)
	}
	done()

	j, memo, err := openJournal(filepath.Join(dir, "build-a"))
	if err != nil {
		t.Fatal(err)
	}
	j.close()
	if len(memo) != 0 {
		t.Fatalf("journal holds %d records, want 0", len(memo))
	}

	// A request the cache cannot key is an error too, before any run.
	openTestCache(t, dir, "build-a")
	bad := sim.AuditConfig()
	bad.GPU.NumSMs = 0
	if r := RunOne(bad, "VADD", sim.Baseline, 1); r.Err == nil {
		t.Fatal("an invalid configuration was accepted")
	}
}

// TestRunCacheBuildIdentity: results are filed under the build identity,
// so a different simulator binary misses and re-simulates.
func TestRunCacheBuildIdentity(t *testing.T) {
	cfg := sim.AuditConfig()
	dir := t.TempDir()
	done := openTestCache(t, dir, "build-a")
	mustRun(t, cfg, "VADD", sim.Baseline)
	done()

	done = openTestCache(t, dir, "build-b")
	if s, h := tallyDelta(func() { mustRun(t, cfg, "VADD", sim.Baseline) }); s != 1 || h != 0 {
		t.Fatalf("other build: %d simulated, %d hits; want 1 and 0", s, h)
	}
	done()

	openTestCache(t, dir, "build-a")
	if s, h := tallyDelta(func() { mustRun(t, cfg, "VADD", sim.Baseline) }); s != 0 || h != 1 {
		t.Fatalf("original build: %d simulated, %d hits; want 0 and 1", s, h)
	}

	id, err := buildID()
	if err != nil || len(id) != 64 {
		t.Fatalf("buildID() = %q, %v; want a hex SHA-256", id, err)
	}
}

// TestRunCacheConcurrentMisses drives the cache from several runAll workers
// at once, with every leg submitted twice so identical keys miss
// concurrently. Run under -race (make check). Every job must succeed, and
// the journal must hold each key exactly once.
func TestRunCacheConcurrentMisses(t *testing.T) {
	dir := t.TempDir()
	done := openTestCache(t, dir, "build-a")
	saved := Jobs
	Jobs = 4
	defer func() { Jobs = saved }()

	cfg := sim.AuditConfig()
	modes := []sim.Mode{sim.Baseline, sim.NaiveNDP, sim.DynNDP}
	var jobs []job
	for rep := 0; rep < 2; rep++ {
		for _, m := range modes {
			jobs = append(jobs, job{workload: "VADD", mode: m, cfg: cfg})
		}
	}
	var runs map[string]*Run
	s, h := tallyDelta(func() { runs = runAll(jobs, 1) })
	if err := checkErrs(runs); err != nil {
		t.Fatal(err)
	}
	if s+h != int64(len(jobs)) || s < int64(len(modes)) {
		t.Fatalf("%d simulated + %d hits for %d jobs over %d keys", s, h, len(jobs), len(modes))
	}
	done()

	if n := countRecords(t, filepath.Join(dir, "build-a")); n != len(modes) {
		t.Fatalf("journal holds %d records, want one per key (%d)", n, len(modes))
	}
}

// TestRunAllRecoversPanic: a run that panics becomes its experiment's error,
// with the panic and its stack in the message, instead of crashing the
// sweep. The configuration is one Validate rejects, but vm.New sees it
// first and panics on the non-power-of-two page size.
func TestRunAllRecoversPanic(t *testing.T) {
	bad := sim.AuditConfig()
	bad.Mem.PageBytes = 3000
	runs := runAll([]job{{workload: "VADD", mode: sim.Baseline, cfg: bad}}, 1)
	err := checkErrs(runs)
	if err == nil {
		t.Fatal("a panicking run reported no error")
	}
	if msg := err.Error(); !strings.Contains(msg, "VADD/Baseline: panic:") || !strings.Contains(msg, "goroutine") {
		t.Fatalf("error lacks the panic or its stack: %v", err)
	}
}

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
		done := openTestCache(t, dir, "build-a")
		defer done()
		start := time.Now()
		simulated, hits = tallyDelta(func() {
			for _, wl := range Workloads() {
				for _, m := range modes {
					want, ok := golden[GoldenKey(wl, m.Name)]
					if !ok {
						t.Fatalf("golden file has no entry for %s|%s", wl, m.Name)
					}
					run := mustRun(t, cfg, wl, m)
					d := run.Stats.Digest()
					d["TimePS"] = float64(run.TimePS)
					d["EnergyTotalPJ"] = run.Energy.Total()
					diffDigest(t, name+" "+wl+"/"+m.Name, d, want)
				}
			}
		})
		t.Logf("%s pass: %d simulated, %d cache hits in %v", name, simulated, hits, time.Since(start))
		return simulated, hits
	}

	legs := int64(len(Workloads()) * len(modes))
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
