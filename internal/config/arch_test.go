package config

import "testing"

func TestArchDefaults(t *testing.T) {
	var a ArchConfig
	if a.StackTranslation() {
		t.Error("zero ArchConfig enables stack translation")
	}
	if a.EffStackTLBEntries() != 32 || a.EffStackTLBWays() != 4 || a.EffStackWalkCycles() != 30 {
		t.Errorf("zero-value effective knobs = %d/%d/%d, want 32/4/30",
			a.EffStackTLBEntries(), a.EffStackTLBWays(), a.EffStackWalkCycles())
	}
}

func TestArchValidate(t *testing.T) {
	good := ArchConfig{StackXlat: true, StackTLBEntries: 64, StackTLBWays: 8}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid arch config rejected: %v", err)
	}
	for name, a := range map[string]ArchConfig{
		"negative entries": {StackTLBEntries: -1},
		"negative walk":    {StackWalkCycles: -1},
		"ways beyond sets": {StackXlat: true, StackTLBEntries: 8, StackTLBWays: 3},
		"non-pow2 sets":    {StackXlat: true, StackTLBEntries: 24, StackTLBWays: 4},
	} {
		if err := a.Validate(); err == nil {
			t.Errorf("%s: want error, got none", name)
		}
	}
}
