package experiments

import (
	"encoding/json"
	"testing"

	"ndpgpu/internal/config"
	"ndpgpu/internal/sim"
)

func mustKey(t *testing.T, abbr string, mode sim.Mode, scale int, cfg config.Config) string {
	t.Helper()
	key, err := runKey(abbr, mode, scale, cfg)
	if err != nil {
		t.Fatalf("%s/%s: %v", abbr, mode.Name, err)
	}
	return key
}

// TestRequestKeyStable pins the run key. The pinned values are the keys the
// run cache used before it moved into this package, so they prove the move
// kept the key. Updating a pin is fine when intentional (a change to
// config.Default moves it too); it only sends every cache cold.
func TestRequestKeyStable(t *testing.T) {
	def := config.Default()
	moreCore, cfgMC, err := sim.ParseMode("morecore", def)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		abbr  string
		mode  sim.Mode
		scale int
		cfg   config.Config
		want  string
	}{
		{"VADD", sim.Baseline, 1, def, "90ece3c6d50b2fa6317af413abe2f8c73088b8ebf0958962248b17f58062cf4c"},
		{"VADD", sim.DynNDP, 1, def, "41fdac8b8a228744365e9f9a1934e8a841bc8da564f892f47cd11323c6362bb0"},
		{"VADD", sim.StaticNDP(0.5), 1, def, "54e75df81f1757d4ff4ba309f87986ab2c75b7c07333eb1f413b41cf534f3965"},
		{"VADD", moreCore, 1, cfgMC, "fc234a36ebd513b15c160e4a1e7da2809512775d65967c9778547afe3e8510ea"},
		{"KMN", sim.DynCache, 2, sim.AuditConfig(), "40ab9f639f8bf078c6c7dc5afd802533dacd314b2ef386478cb05fda9735dae5"},
	} {
		if got := mustKey(t, tc.abbr, tc.mode, tc.scale, tc.cfg); got != tc.want {
			t.Errorf("%s/%s scale %d: key %s, want %s", tc.abbr, tc.mode.Name, tc.scale, got, tc.want)
		}
	}
}

// TestRunKeyDistinct: anything that changes the simulation changes the key;
// a scale below 1 keys as 1, which is what the workloads run.
func TestRunKeyDistinct(t *testing.T) {
	def := config.Default()
	seeded := def
	seeded.Mem.PlacementSeed = 7
	faulty := def
	faulty.Fault.DropProb = 0.01
	small := def
	small.GPU.NumSMs = 8
	_, moreCore, _ := sim.ParseMode("morecore", def)
	distinct := []struct {
		name  string
		abbr  string
		mode  sim.Mode
		scale int
		cfg   config.Config
	}{
		{"dyn", "VADD", sim.DynNDP, 1, def},
		{"naive", "VADD", sim.NaiveNDP, 1, def},
		{"static=0", "VADD", sim.StaticNDP(0), 1, def}, // NDP machinery at ratio 0 != baseline
		{"baseline", "VADD", sim.Baseline, 1, def},
		{"morecore", "VADD", sim.Baseline, 1, moreCore},
		{"workload", "BFS", sim.DynNDP, 1, def},
		{"scale", "VADD", sim.DynNDP, 2, def},
		{"seed", "VADD", sim.DynNDP, 1, seeded},
		{"faults", "VADD", sim.DynNDP, 1, faulty},
		{"config", "VADD", sim.DynNDP, 1, small},
	}
	seen := map[string]string{}
	for _, d := range distinct {
		k := mustKey(t, d.abbr, d.mode, d.scale, d.cfg)
		if prev, dup := seen[k]; dup {
			t.Errorf("key collision between %s and %s", prev, d.name)
		}
		seen[k] = d.name
	}
	if mustKey(t, "VADD", sim.DynNDP, 0, def) != mustKey(t, "VADD", sim.DynNDP, 1, def) {
		t.Error("scale 0 and scale 1 key differently")
	}
}

// FuzzParseRunRequest reads arbitrary bytes as a JSON spelling of a run
// (workload, mode, scale, and config fields laid over config.Default()),
// resolves it the way a command line does (sim.ParseMode, then
// Config.Validate) and keys it. No input may panic, every accepted run must
// key, and the key must be stable: keying it again, and keying the mode
// re-parsed from its canonical spelling, both reproduce it. Fields the
// input names that a run no longer has are ignored.
func FuzzParseRunRequest(f *testing.F) {
	seeds := []string{
		`{"workload":"VADD"}`,
		`{"workload":"BFS","mode":"dyn","scale":2,"seed":7}`,
		`{"workload":"VADD","mode":"static=0.5"}`,
		`{"workload":"VADD","mode":"dyncache","overrides":{"gpu.numsms":8,"nsu.clockmhz":175}}`,
		`{"workload":"KMN","mode":"naive","faults":"drop:p=0.01;seed=3"}`,
		`{"workload":"STCL","faults":"vaultfreeze:t=1000000:hmc=1:vault=5:dur=6000000;timeout=2000;retries=3"}`,
		`{"workload":"VADD","mode":"morecore","client":"alice"}`,
		`{"workload":"NOPE"}`,
		`{"workload":`,
		`{"workload":"VADD","overrides":{"gpu.numsms":-3}}`,
		`{"workload":"VADD","overrides":{"bogus.knob":1}}`,
		`{"workload":"VADD","scale":99999999}`,
		`{"workload":"VADD","config":{"Bogus":1}}`,
		`{"workload":"VADD"} trailing`,
		`[]`,
		`null`,
		`{"workload":"VADD","mode":"static=nan"}`,
		`{"workload":"VADD","overrides":{"gpu.numsms":1e100}}`,
		`{"workload":"VADD","config":{"GPU":{"NumSMs":-1}}}`,
		`{"workload":"VADD","mode":"naive","config":{"GPU":{"NumSMs":4},"NSU":{"CmdEntries":1}}}`,
		`{"workload":"VADD","overrides":{"GPU.NumSMs":8,"gpu.numsms":16}}`,
		`{"workload":"VADD","faults":"meteor:t=0"}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rr := struct {
			Workload string
			Mode     string
			Scale    int
			Config   config.Config
		}{Mode: "baseline", Config: config.Default()}
		if err := json.Unmarshal(data, &rr); err != nil {
			return // not a run spelling
		}
		mode, cfg, err := sim.ParseMode(rr.Mode, rr.Config)
		if err != nil {
			return // rejection is fine; panicking is not
		}
		if err := cfg.Validate(); err != nil {
			return
		}
		key, err := runKey(rr.Workload, mode, rr.Scale, cfg)
		if err != nil {
			t.Fatalf("valid run does not key: %v\ninput: %q", err, data)
		}
		if len(key) != 64 {
			t.Fatalf("malformed key %q", key)
		}
		if again, err := runKey(rr.Workload, mode, rr.Scale, cfg); err != nil || again != key {
			t.Fatalf("key not stable across calls: %v / %s vs %s", err, key, again)
		}
		// SpecFor spells morecore as baseline: its SM adjustment is in cfg.
		mode2, cfg2, err := sim.ParseMode(sim.SpecFor(mode), cfg)
		if err != nil {
			t.Fatalf("canonical spelling %q rejected: %v\ninput: %q", sim.SpecFor(mode), err, data)
		}
		if resolved := mustKey(t, rr.Workload, mode2, rr.Scale, cfg2); resolved != key {
			t.Fatalf("canonical spelling changed the key:\ninput: %q\n%s -> %s", data, key, resolved)
		}
	})
}
