package config

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestPresetsValidate(t *testing.T) {
	for name, c := range map[string]Config{
		"MoreCore":      MoreCore(),
		"DoubleCompute": DoubleCompute(),
		"HalfNSUClock":  HalfNSUClock(),
	} {
		if err := c.Validate(); err != nil {
			t.Errorf("%s invalid: %v", name, err)
		}
	}
}

func TestMoreCoreAddsOneSMPerHMC(t *testing.T) {
	base, mc := Default(), MoreCore()
	if got, want := mc.GPU.NumSMs, base.GPU.NumSMs+base.NumHMCs; got != want {
		t.Fatalf("MoreCore SMs = %d, want %d", got, want)
	}
}

func TestDoubleComputeDoublesSMs(t *testing.T) {
	base, dc := Default(), DoubleCompute()
	if dc.GPU.NumSMs != 2*base.GPU.NumSMs {
		t.Fatalf("DoubleCompute SMs = %d, want %d", dc.GPU.NumSMs, 2*base.GPU.NumSMs)
	}
}

func TestHalfNSUClock(t *testing.T) {
	if got := HalfNSUClock().NSU.ClockMHz; got != 175 {
		t.Fatalf("HalfNSUClock = %d MHz, want 175", got)
	}
}

func TestCacheGeomSets(t *testing.T) {
	g := CacheGeom{SizeBytes: 32 << 10, Ways: 4, LineBytes: 128}
	if got := g.Sets(); got != 64 {
		t.Fatalf("Sets() = %d, want 64", got)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
}

func TestCacheGeomRejectsNonPow2Sets(t *testing.T) {
	g := CacheGeom{SizeBytes: 3 * 128 * 4, Ways: 4, LineBytes: 128} // 3 sets
	if err := g.Validate(); err == nil {
		t.Fatal("expected error for non-power-of-two set count")
	}
}

func TestCacheGeomRejectsZero(t *testing.T) {
	if err := (CacheGeom{}).Validate(); err == nil {
		t.Fatal("expected error for zero geometry")
	}
}

func TestValidateRejectsBadHMCCount(t *testing.T) {
	c := Default()
	c.NumHMCs = 6
	if err := c.Validate(); err == nil {
		t.Fatal("expected error for non-power-of-two HMC count")
	}
	c.NumHMCs = 0
	if err := c.Validate(); err == nil {
		t.Fatal("expected error for zero HMC count")
	}
}

func TestValidateRejectsWarpWidthMismatch(t *testing.T) {
	c := Default()
	c.NSU.WarpWidth = 16
	if err := c.Validate(); err == nil {
		t.Fatal("expected error for NSU/GPU warp width mismatch")
	}
}

func TestValidateRejectsBadThreadCount(t *testing.T) {
	c := Default()
	c.GPU.MaxThreadsPerSM = 1000 // not a multiple of 32
	if err := c.Validate(); err == nil {
		t.Fatal("expected error for non-multiple thread count")
	}
}

func TestValidateRejectsBadPageSize(t *testing.T) {
	c := Default()
	c.Mem.PageBytes = 3000
	if err := c.Validate(); err == nil {
		t.Fatal("expected error for non-power-of-two page size")
	}
}

// TestValidateParallel pins the deprecated Parallel field: 0 and 1 (the
// serial engine under both old spellings) pass; anything else is rejected
// because there is no other engine.
func TestValidateParallel(t *testing.T) {
	for _, tc := range []struct {
		par int
		ok  bool
	}{{0, true}, {1, true}, {4, false}, {-1, false}} {
		c := Default()
		c.Parallel = tc.par
		err := c.Validate()
		if tc.ok && err != nil {
			t.Errorf("Parallel=%d: unexpected error %v", tc.par, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("Parallel=%d: want error, got none", tc.par)
		}
	}
}

func TestPacketBufferOverhead(t *testing.T) {
	c := Default()
	// §7.5: 8 B x 300 pending + 8 B x 64 ready = 2912 B = 2.84 KB.
	if got := c.PacketBufferBytesPerSM(); got != 2912 {
		t.Fatalf("packet buffer bytes = %d, want 2912", got)
	}
	frac := float64(c.PacketBufferBytesPerSM()) / float64(c.OnChipStorageBytesPerSM())
	// Paper reports 1.8% of on-chip storage.
	if frac < 0.01 || frac > 0.035 {
		t.Fatalf("overhead fraction = %.4f, want ~0.018", frac)
	}
}

func TestWarpsPerSM(t *testing.T) {
	if got := Default().WarpsPerSM(); got != 48 {
		t.Fatalf("WarpsPerSM = %d, want 48", got)
	}
}

func TestSetsAlwaysDividesSize(t *testing.T) {
	// Property: for any valid geometry, Sets()*Ways*LineBytes == SizeBytes.
	f := func(setsLog, waysLog uint8) bool {
		sets := 1 << (setsLog % 10)
		ways := 1 << (waysLog % 4)
		g := CacheGeom{SizeBytes: sets * ways * 128, Ways: ways, LineBytes: 128}
		if err := g.Validate(); err != nil {
			return false
		}
		return g.Sets()*g.Ways*g.LineBytes == g.SizeBytes
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCanonicalDeterministic(t *testing.T) {
	a := Default()
	b := Default()
	// Same resolved config, whatever order the values were set in.
	a.GPU.NumSMs = 4
	a.NSU.ClockMHz = 175
	b.NSU.ClockMHz = 175
	b.GPU.NumSMs = 4
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
