package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"ndpgpu/internal/config"
	"ndpgpu/internal/stats"
	"ndpgpu/internal/vm"
	"ndpgpu/internal/workloads"
)

// The engine is serial: one run uses one core. Cores pay off across runs
// instead (ndpsweep -j, the ndpserve worker pool), which is only sound if
// independent Machines in one process share no mutable state. The tests in
// this file pin that: a run made while other runs execute on other
// goroutines must be bit-identical to the same run made alone.

// parLeg captures everything a run can externally observe: the final memory
// image, the complete statistics bundle, and (when auditing) the violation
// count.
type parLeg struct {
	mem        []byte
	st         *stats.Stats
	cycles     int64
	violations int64
}

// runLeg runs one workload/mode leg and returns its observable outcome. The
// functional output is verified against the host reference. It reports
// failures as errors so that it can be called off the test goroutine.
func runLeg(cfg config.Config, abbr string, mode Mode, withAudit bool) (parLeg, error) {
	mem := vm.New(cfg)
	w, err := workloads.Build(abbr, mem, 1)
	if err != nil {
		return parLeg{}, err
	}
	m, err := Launch(cfg, w.Kernel, mem, mode)
	if err != nil {
		return parLeg{}, fmt.Errorf("%s/%s: Launch: %v", abbr, mode.Name, err)
	}
	var aud interface{ Count() int64 }
	if withAudit {
		aud = m.EnableAudit()
	}
	res, err := m.Run(0)
	if err != nil {
		return parLeg{}, fmt.Errorf("%s/%s: Run: %v", abbr, mode.Name, err)
	}
	if err := w.Verify(); err != nil {
		return parLeg{}, fmt.Errorf("%s/%s: verification failed: %v", abbr, mode.Name, err)
	}
	leg := parLeg{mem: mem.Snapshot(), st: res.Stats, cycles: res.Cycles}
	if aud != nil {
		leg.violations = aud.Count()
	}
	return leg, nil
}

// runParLeg is runLeg on the test goroutine.
func runParLeg(t *testing.T, cfg config.Config, abbr string, mode Mode, withAudit bool) parLeg {
	t.Helper()
	leg, err := runLeg(cfg, abbr, mode, withAudit)
	if err != nil {
		t.Fatal(err)
	}
	return leg
}

// runConcurrentLegs starts n copies of one leg at once, each on its own
// goroutine with its own memory image and Machine, and returns them all.
func runConcurrentLegs(t *testing.T, cfg config.Config, abbr string, mode Mode, withAudit bool, n int) []parLeg {
	t.Helper()
	legs := make([]parLeg, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range legs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			legs[i], errs[i] = runLeg(cfg, abbr, mode, withAudit)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return legs
}

// requireIdentical asserts bit-identity of two legs: same final memory image
// and every statistics counter equal.
func requireIdentical(t *testing.T, name string, alone, concurrent parLeg) {
	t.Helper()
	if alone.cycles != concurrent.cycles {
		t.Errorf("%s: cycles diverge: alone=%d concurrent=%d", name, alone.cycles, concurrent.cycles)
	}
	if !bytes.Equal(alone.mem, concurrent.mem) {
		t.Errorf("%s: final memory images differ", name)
	}
	if !reflect.DeepEqual(alone.st, concurrent.st) {
		t.Errorf("%s: statistics diverge:\nalone:      %+v\nconcurrent: %+v", name, alone.st, concurrent.st)
	}
}

// TestParallelEquivalence runs every workload x mode leg twice: once alone,
// then again while the other legs' second runs execute concurrently (the
// subtests go parallel after their reference run, so the second runs
// overlap the way ndpsweep -j jobs do). Each second run must be
// bit-identical to its reference — same final memory image, same cycle
// count, every statistics counter equal. The mode set covers every decider
// kind: Never/Always, Dynamic (seeded PRNG draws) and CacheAware (profile
// state per Machine).
func TestParallelEquivalence(t *testing.T) {
	cfg := smallConfig()
	wls := workloads.Abbrs()
	if testing.Short() {
		wls = []string{"VADD", "BFS"}
	}
	type leg struct {
		name string
		abbr string
		mode Mode
	}
	var legs []leg
	for _, abbr := range wls {
		for _, mode := range []Mode{Baseline, NaiveNDP, DynCache} {
			legs = append(legs, leg{abbr + "/" + mode.Name, abbr, mode})
		}
	}
	// Plain Dynamic (no cache filter): PRNG draws without profile state.
	legs = append(legs, leg{"VADD/NDP(Dyn)", "VADD", DynNDP})
	for _, l := range legs {
		l := l
		t.Run(l.name, func(t *testing.T) {
			alone := runParLeg(t, cfg, l.abbr, l.mode, false)
			t.Parallel()
			concurrent := runParLeg(t, cfg, l.abbr, l.mode, false)
			requireIdentical(t, l.name, alone, concurrent)
		})
	}
}

// TestParallelEquivalenceAudited runs an audited leg alone and then as two
// concurrent copies: every invariant checker must see zero violations in
// each run, and the statistics must match the lone run.
func TestParallelEquivalenceAudited(t *testing.T) {
	cfg := AuditConfig()
	alone := runParLeg(t, cfg, "VADD", NaiveNDP, true)
	if alone.violations != 0 {
		t.Fatalf("audit violations alone: %d, want 0", alone.violations)
	}
	for i, c := range runConcurrentLegs(t, cfg, "VADD", NaiveNDP, true, 2) {
		if c.violations != 0 {
			t.Fatalf("audit violations in concurrent run %d: %d, want 0", i, c.violations)
		}
		requireIdentical(t, fmt.Sprintf("audited VADD/NaiveNDP #%d", i), alone, c)
	}
}

// TestParallelEquivalenceChaos runs a leg under a deterministic fault
// schedule that exercises the recovery paths (timeouts, retries), with
// auditing on, alone and then as two concurrent copies: each fault injector
// belongs to its Machine, so the concurrent runs must reproduce the lone
// run's recovery decisions bit for bit.
func TestParallelEquivalenceChaos(t *testing.T) {
	cfg := AuditConfig()
	var spec string
	for _, s := range PinnedSchedules() {
		if s.Name == "frozen-vault" {
			spec = s.Spec
		}
	}
	if spec == "" {
		t.Fatal("frozen-vault schedule not found")
	}
	fc, err := ChaosFaultConfig(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Fault = fc
	alone := runParLeg(t, cfg, "VADD", NaiveNDP, true)
	if alone.violations != 0 {
		t.Fatalf("audit violations alone: %d, want 0", alone.violations)
	}
	if alone.st.OffloadTimeouts == 0 {
		t.Fatal("chaos leg fired no timeouts; schedule inert")
	}
	for i, c := range runConcurrentLegs(t, cfg, "VADD", NaiveNDP, true, 2) {
		if c.violations != 0 {
			t.Fatalf("audit violations in concurrent run %d: %d, want 0", i, c.violations)
		}
		requireIdentical(t, fmt.Sprintf("chaos VADD/NaiveNDP #%d", i), alone, c)
	}
}
