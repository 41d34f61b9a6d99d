package sim

import (
	"strings"
	"testing"

	"ndpgpu/internal/config"
)

func TestParseMode(t *testing.T) {
	def := config.Default()
	moreCore := def
	moreCore.GPU.NumSMs += def.NumHMCs

	// Every spelling ModeUsage advertises, with "static=<p>" instantiated.
	cases := map[string]struct {
		mode Mode
		cfg  config.Config
	}{
		"baseline":   {Baseline, def},
		"morecore":   {Mode{Name: "Baseline_MoreCore"}, moreCore},
		"naive":      {NaiveNDP, def},
		"static=0.5": {StaticNDP(0.5), def},
		"dyn":        {DynNDP, def},
		"dyncache":   {DynCache, def},
	}
	for _, spelling := range strings.Split(ModeUsage, "|") {
		if spelling == "static=<p>" {
			spelling = "static=0.5"
		}
		want, ok := cases[spelling]
		if !ok {
			t.Fatalf("ModeUsage spelling %q has no case", spelling)
		}
		m, cfg, err := ParseMode(spelling, def)
		if err != nil {
			t.Fatalf("%s: %v", spelling, err)
		}
		if m != want.mode || cfg.GPU.NumSMs != want.cfg.GPU.NumSMs {
			t.Errorf("%s: mode %+v with %d SMs, want %+v with %d", spelling, m, cfg.GPU.NumSMs,
				want.mode, want.cfg.GPU.NumSMs)
		}
		// Every mode but morecore (whose SM adjustment is in the config,
		// not the spelling) round-trips through its canonical spelling.
		if spelling == "morecore" {
			if SpecFor(m) != "baseline" {
				t.Errorf("morecore: SpecFor = %q, want baseline", SpecFor(m))
			}
			continue
		}
		if back, _, err := ParseMode(SpecFor(m), def); err != nil || back != m {
			t.Errorf("%s: ParseMode(SpecFor) = %+v, %v; want %+v", spelling, back, err, m)
		}
	}

	m, _, err := ParseMode("static=0.50", def)
	if err != nil || SpecFor(m) != "static=0.5" {
		t.Errorf("static=0.50: SpecFor = %q (err %v), want static=0.5", SpecFor(m), err)
	}

	for _, bad := range []string{"static=nan", "static=NaN", "static=1.5", "static=-0.1", "static=", "turbo", ""} {
		if m, _, err := ParseMode(bad, def); err == nil {
			t.Errorf("ParseMode(%q) accepted as %+v", bad, m)
		}
	}
}
