package config

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
)

// This file is the request-facing surface of the configuration: named
// override knobs a run request may carry (serve.RunRequest's Overrides
// field) and the canonical serialization the request digest — the
// ndpsweep -cache key — is computed over.
//
// Overrides are applied in sorted key order, so two requests naming the same
// knobs produce the same Config — and therefore the same canonical bytes and
// the same cache key — regardless of the order the client wrote them in.

// knob is one overridable configuration point.
type knob struct {
	doc string
	set func(*Config, float64) error
}

// setInt assigns v to an int field, rejecting non-integral or out-of-range
// values (an override of 3.5 SMs is a client error, not a truncation).
func setInt(p *int, v float64) error {
	if v != math.Trunc(v) || math.Abs(v) > math.MaxInt32 {
		return fmt.Errorf("want an integer, got %g", v)
	}
	*p = int(v)
	return nil
}

// setInt64 is setInt for 64-bit counters (seeds, epoch lengths).
func setInt64(p *int64, v float64) error {
	if v != math.Trunc(v) || math.Abs(v) > (1<<53) {
		return fmt.Errorf("want an integer, got %g", v)
	}
	*p = int64(v)
	return nil
}

// knobs maps override names (lower-case, dotted paths mirroring the Config
// layout) to setters. Extend freely: anything settable here is automatically
// part of the request digest, because the digest hashes the resolved Config.
var knobs = map[string]knob{
	"numhmcs":    {"number of memory stacks", func(c *Config, v float64) error { return setInt(&c.NumHMCs, v) }},
	"gpu.numsms": {"streaming multiprocessors", func(c *Config, v float64) error { return setInt(&c.GPU.NumSMs, v) }},
	"gpu.maxctaspersm": {"concurrent CTAs per SM", func(c *Config, v float64) error {
		return setInt(&c.GPU.MaxCTAsPerSM, v)
	}},
	"gpu.smclockmhz": {"SM clock (MHz)", func(c *Config, v float64) error { return setInt(&c.GPU.SMClockMHz, v) }},
	"gpu.tlbentries": {"per-SM TLB entries", func(c *Config, v float64) error { return setInt(&c.GPU.TLBEntries, v) }},
	"gpu.linkgbps":   {"GPU-HMC link bandwidth (GB/s)", func(c *Config, v float64) error { c.GPU.LinkGBps = v; return nil }},
	"gpu.l2.sizebytes": {"total L2 capacity (bytes)", func(c *Config, v float64) error {
		return setInt(&c.GPU.L2.SizeBytes, v)
	}},
	"hmc.numvaults":  {"vaults per stack", func(c *Config, v float64) error { return setInt(&c.HMC.NumVaults, v) }},
	"hmc.vaultqueue": {"vault request queue depth", func(c *Config, v float64) error { return setInt(&c.HMC.VaultQueue, v) }},
	"hmc.netlinkgbps": {"inter-stack link bandwidth (GB/s)", func(c *Config, v float64) error {
		c.HMC.NetLinkGBps = v
		return nil
	}},
	"hmc.overflowcap": {"logic-layer retry-overflow cap (0 = default)", func(c *Config, v float64) error {
		return setInt(&c.HMC.OverflowCap, v)
	}},
	"nsu.clockmhz": {"NSU clock (MHz)", func(c *Config, v float64) error { return setInt(&c.NSU.ClockMHz, v) }},
	"nsu.numwarps": {"NSU warp slots", func(c *Config, v float64) error { return setInt(&c.NSU.NumWarps, v) }},
	"nsu.physsimdwidth": {"NSU physical SIMD width", func(c *Config, v float64) error {
		return setInt(&c.NSU.PhysSIMDWidth, v)
	}},
	"nsu.readonlycachebytes": {"NSU read-only cache (bytes, 0 = off)", func(c *Config, v float64) error {
		return setInt(&c.NSU.ReadOnlyCacheBytes, v)
	}},
	"ndp.epochcycles": {"Algorithm-1 epoch length (SM cycles)", func(c *Config, v float64) error {
		return setInt64(&c.NDP.EpochCycles, v)
	}},
	"ndp.initratio": {"initial offload ratio", func(c *Config, v float64) error { c.NDP.InitRatio = v; return nil }},
	"ndp.decisionseed": {"offload-decision PRNG seed", func(c *Config, v float64) error {
		return setInt64(&c.NDP.DecisionSeed, v)
	}},
	"ndp.pendingentries": {"SM pending-buffer entries", func(c *Config, v float64) error {
		return setInt(&c.NDP.PendingEntries, v)
	}},
	"mem.placementseed": {"page-placement PRNG seed", func(c *Config, v float64) error {
		return setInt64(&c.Mem.PlacementSeed, v)
	}},
	"arch.stacktlbentries": {"per-stack TLB entries (ndpage backend, 0 = default)", func(c *Config, v float64) error {
		return setInt(&c.Arch.StackTLBEntries, v)
	}},
	"arch.stackwalkcycles": {"stack page-walk cost in DRAM cycles (ndpage backend, 0 = default)", func(c *Config, v float64) error {
		return setInt(&c.Arch.StackWalkCycles, v)
	}},
	"fault.timeoutcycles": {"first offload-retry timeout (SM cycles)", func(c *Config, v float64) error {
		return setInt64(&c.Fault.TimeoutCycles, v)
	}},
	"fault.maxretries": {"offload retries before host fallback", func(c *Config, v float64) error {
		return setInt(&c.Fault.MaxRetries, v)
	}},
}

// KnownOverrides returns every accepted override name, sorted — quoted by
// parse errors and the service docs.
func KnownOverrides() []string {
	names := make([]string, 0, len(knobs))
	for n := range knobs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// OverrideDoc returns the one-line description of a knob ("" if unknown).
func OverrideDoc(name string) string { return knobs[name].doc }

// ApplyOverrides applies named overrides to the configuration in sorted key
// order. An unknown name or a non-integral value for an integer knob is an
// error; range and consistency checking is Validate's job, so callers should
// validate the resulting Config afterwards.
func ApplyOverrides(c *Config, ov map[string]float64) error {
	if len(ov) == 0 {
		return nil
	}
	names := make([]string, 0, len(ov))
	for n := range ov {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		k, ok := knobs[strings.ToLower(n)]
		if !ok {
			return fmt.Errorf("unknown override %q (valid: %s)", n, strings.Join(KnownOverrides(), " "))
		}
		if err := k.set(c, ov[n]); err != nil {
			return fmt.Errorf("override %q: %w", n, err)
		}
	}
	return nil
}

// Canonical serializes the configuration deterministically for digesting:
// Config is a tree of plain structs and slices (no maps), so encoding/json's
// fixed field order makes the bytes a pure function of the values. Two
// requests that resolve to the same Config — whatever spelling or override
// order produced it — serialize identically.
func Canonical(c Config) ([]byte, error) {
	return json.Marshal(c)
}
