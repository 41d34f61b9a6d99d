package config

import (
	"bytes"
	"testing"
)

func TestApplyOverrides(t *testing.T) {
	c := Default()
	err := ApplyOverrides(&c, map[string]float64{
		"gpu.numsms":        4,
		"nsu.clockmhz":      175,
		"ndp.initratio":     0.25,
		"mem.placementseed": 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.GPU.NumSMs != 4 || c.NSU.ClockMHz != 175 || c.NDP.InitRatio != 0.25 || c.Mem.PlacementSeed != 7 {
		t.Fatalf("overrides not applied: %+v", c)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("overridden config invalid: %v", err)
	}
}

func TestApplyOverridesErrors(t *testing.T) {
	for name, ov := range map[string]map[string]float64{
		"unknown knob":  {"gpu.nosuchknob": 1},
		"fractional sm": {"gpu.numsms": 3.5},
		"huge seed":     {"mem.placementseed": 1e30},
		"retired knob":  {"parallel": 2},
		"retired width": {"fusionwidth": 2},
	} {
		c := Default()
		if err := ApplyOverrides(&c, ov); err == nil {
			t.Errorf("%s: want error, got none", name)
		}
	}
	// A legal override of an int knob with a whole-valued float is fine.
	c := Default()
	if err := ApplyOverrides(&c, map[string]float64{"gpu.numsms": 8.0}); err != nil {
		t.Errorf("whole-valued float rejected: %v", err)
	}
}

func TestCanonicalDeterministic(t *testing.T) {
	a := Default()
	b := Default()
	// Same resolved config — independently of how the values got there.
	a.GPU.NumSMs = 4
	a.NSU.ClockMHz = 175
	if err := ApplyOverrides(&b, map[string]float64{"nsu.clockmhz": 175, "gpu.numsms": 4}); err != nil {
		t.Fatal(err)
	}
	ca, err := Canonical(a)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := Canonical(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ca, cb) {
		t.Fatalf("canonical bytes differ for identical configs:\n%s\n%s", ca, cb)
	}
	cd, _ := Canonical(Default())
	if bytes.Equal(ca, cd) {
		t.Fatal("canonical bytes identical for different configs")
	}
}

func TestKnownOverridesSortedAndDocumented(t *testing.T) {
	names := KnownOverrides()
	if len(names) == 0 {
		t.Fatal("no override knobs registered")
	}
	for i, n := range names {
		if i > 0 && names[i-1] >= n {
			t.Fatalf("KnownOverrides not sorted at %q", n)
		}
		if OverrideDoc(n) == "" {
			t.Errorf("knob %q has no doc string", n)
		}
	}
}
