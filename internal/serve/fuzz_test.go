package serve

import (
	"encoding/json"
	"testing"

	"ndpgpu/internal/config"
)

// FuzzParseRunRequest builds a RunRequest from arbitrary bytes, read as a
// JSON spelling of its fields (workload, mode, scale, seed, overrides,
// faults, and config fields laid over config.Default()), and fuzzes
// Canonicalize with it. No input may panic Canonicalize, and any accepted
// request must key stably: canonicalizing it again (override map iteration
// order differs between calls) and canonicalizing its resolved form, the
// spelling the ndpsweep -cache key uses, must both reproduce the key.
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
		cfg := config.Default()
		rr := RunRequest{Config: &cfg}
		if err := json.Unmarshal(data, &rr); err != nil {
			return // not a RunRequest spelling
		}
		req, err := Canonicalize(&rr)
		if err != nil {
			return // rejection is fine; panicking is not
		}
		if len(req.Key) != 64 {
			t.Fatalf("accepted request has malformed key %q", req.Key)
		}
		if again, err := Canonicalize(&rr); err != nil || again.Key != req.Key {
			t.Fatalf("key not stable across calls: %v / %s vs %s", err, req.Key, again.Key)
		}
		resolved, err := Canonicalize(&RunRequest{Workload: req.Workload, Mode: req.ModeSpec,
			Scale: req.Scale, Config: &req.Cfg})
		if err != nil {
			t.Fatalf("resolved form of an accepted request rejected: %v\ninput: %q", err, data)
		}
		if resolved.Key != req.Key {
			t.Fatalf("resolved form changed the key:\ninput: %q\n%s -> %s", data, req.Key, resolved.Key)
		}
		// An accepted request is always internally consistent.
		if req.Scale < 1 || req.Scale > MaxScale {
			t.Fatalf("accepted out-of-range scale %d", req.Scale)
		}
		if err := req.Cfg.Validate(); err != nil {
			t.Fatalf("accepted invalid config: %v", err)
		}
	})
}
