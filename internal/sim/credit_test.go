package sim

import (
	"encoding/json"
	"os"
	"sort"
	"testing"

	"ndpgpu/internal/config"
	"ndpgpu/internal/vm"
	"ndpgpu/internal/workloads"
)

// creditStarvedConfig is the 4-SM audit machine with its NSU buffers cut to
// the smallest sizes on which VADD and KMN still complete: one command
// entry, 32 read-data entries (KMN's offload block loads 32 lines) and one
// write-address entry (VADD's block stores one line). Every offload instance
// then waits for its stack's single command credit, so the SMs' credit-retry
// path runs far more often than on the golden machine: VADD under NaiveNDP
// sees 20.4 M rejected reservations here against 1.6 K there.
func creditStarvedConfig() config.Config {
	cfg := AuditConfig()
	cfg.NSU.CmdEntries = 1
	cfg.NSU.ReadDataEntries = 32
	cfg.NSU.WriteAddrEntries = 1
	return cfg
}

// creditStarvedDigests runs VADD and KMN under NaiveNDP and NDP(Dyn) on the
// credit-starved machine and returns each run's Stats.Digest plus its
// TimePS, keyed workload|mode like testdata/golden_digests.json.
func creditStarvedDigests(t *testing.T) map[string]map[string]float64 {
	t.Helper()
	cfg := creditStarvedConfig()
	out := make(map[string]map[string]float64)
	for _, wl := range []string{"VADD", "KMN"} {
		for _, mode := range []Mode{NaiveNDP, DynNDP} {
			mem := vm.New(cfg)
			w, err := workloads.Build(wl, mem, 1)
			if err != nil {
				t.Fatal(err)
			}
			m, err := Launch(cfg, w.Kernel, mem, mode)
			if err != nil {
				t.Fatal(err)
			}
			res, err := m.Run(0)
			if err != nil {
				t.Fatalf("%s|%s: %v", wl, mode.Name, err)
			}
			if err := w.Verify(); err != nil {
				t.Fatalf("%s|%s: %v", wl, mode.Name, err)
			}
			d := res.Stats.Digest()
			d["TimePS"] = float64(res.TimePS)
			out[wl+"|"+mode.Name] = d
		}
	}
	return out
}

// TestCreditStarvedDigestsPinned pins the credit-starved runs bit for bit.
// The golden machine barely exercises the credit-retry path, so this is the
// regression net for it: any change to how a rejected reservation is
// retried that moves a counter or the end time fails here. The pinned
// values were recorded before the SMs started memoizing the retry target.
func TestCreditStarvedDigestsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("four full simulations with ~255 M credit rejects between them")
	}
	data, err := os.ReadFile("testdata/credit_starved_digests.json")
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]map[string]float64
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	got := creditStarvedDigests(t)
	if len(got) != len(want) {
		t.Fatalf("%d legs, pinned %d", len(got), len(want))
	}
	for leg, w := range want {
		g, ok := got[leg]
		if !ok {
			t.Errorf("%s: leg not run", leg)
			continue
		}
		var diff []string
		for k := range w {
			if g[k] != w[k] {
				diff = append(diff, k)
			}
		}
		for k := range g {
			if _, ok := w[k]; !ok {
				diff = append(diff, k)
			}
		}
		sort.Strings(diff)
		for _, k := range diff {
			t.Errorf("%s: %s = %v, pinned %v", leg, k, g[k], w[k])
		}
	}
}
