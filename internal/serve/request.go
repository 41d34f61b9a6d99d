package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"

	"ndpgpu/internal/config"
	"ndpgpu/internal/fault"
	"ndpgpu/internal/sim"
	"ndpgpu/internal/workloads"
)

// MaxScale bounds the problem-size scale a request may ask for; a runaway
// scale is a request error, not a stalled run.
const MaxScale = 1 << 20

// RunRequest names one simulation. All fields but Workload are optional.
type RunRequest struct {
	// Workload is the Table 1 abbreviation (VADD, BFS, ...).
	Workload string
	// Mode is the CLI mode spelling (baseline|morecore|naive|static=<p>|
	// dyn|dyncache); empty means baseline.
	Mode string
	// Scale is the problem-size scale factor; values below 1 mean 1.
	Scale int
	// Seed, when nonzero, overrides both the page-placement and the
	// offload-decision PRNG seeds.
	Seed int64
	// Overrides are named configuration knobs (config.KnownOverrides)
	// applied on top of the base configuration in sorted key order.
	Overrides map[string]float64
	// Faults is a fault schedule in the -faults DSL (see internal/fault).
	Faults string
	// Config, when present, replaces config.Default() as the base the mode
	// and overrides are applied to.
	Config *config.Config
}

// Request is the canonical, fully-resolved form of a RunRequest: the mode
// spelling normalized, the base configuration with mode adjustment, sorted
// overrides, seed, and fault schedule folded in, and the content-digest key
// computed over the result. Two RunRequests that mean the same run — however
// they spelled it — resolve to the same Key.
type Request struct {
	Workload string
	ModeSpec string // canonical spelling (e.g. "static=0.5", never "static=0.50")
	Mode     sim.Mode
	Scale    int
	Cfg      config.Config
	Key      string // hex SHA-256 over the canonical serialization
}

// Canonicalize resolves a RunRequest into its canonical Request. Unknown
// workloads/modes/overrides, malformed fault schedules, and inconsistent
// configurations are all errors; no input panics.
func Canonicalize(rr *RunRequest) (*Request, error) {
	if rr.Workload == "" {
		return nil, errors.New("missing workload")
	}
	if !knownWorkload(rr.Workload) {
		return nil, fmt.Errorf("unknown workload %q (have %v)", rr.Workload, workloads.Abbrs())
	}
	if rr.Scale < 0 || rr.Scale > MaxScale {
		return nil, fmt.Errorf("scale %d out of range [0,%d]", rr.Scale, MaxScale)
	}

	base := config.Default()
	if rr.Config != nil {
		base = *rr.Config
	}
	spec := rr.Mode
	if spec == "" {
		spec = "baseline"
	}
	mode, cfg, err := sim.ParseMode(spec, base)
	if err != nil {
		return nil, err
	}
	if err := config.ApplyOverrides(&cfg, rr.Overrides); err != nil {
		return nil, err
	}
	if rr.Seed != 0 {
		cfg.Mem.PlacementSeed = rr.Seed
		cfg.NDP.DecisionSeed = rr.Seed
	}
	if rr.Faults != "" {
		fc, err := fault.Parse(rr.Faults, cfg.NumHMCs, cfg.HMC.NumVaults)
		if err != nil {
			return nil, fmt.Errorf("bad fault schedule: %w", err)
		}
		cfg.Fault = fc
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}

	req := &Request{
		Workload: rr.Workload,
		ModeSpec: sim.SpecFor(mode),
		Mode:     mode,
		Scale:    max(rr.Scale, 1),
		Cfg:      cfg,
	}
	key, err := requestKey(req)
	if err != nil {
		return nil, err
	}
	req.Key = key
	return req, nil
}

// requestKey digests the canonical request. The resolved Config already
// folds in the seed, overrides, and fault schedule, so hashing it — plus the
// workload, the normalized mode spelling (two specs with identical flags
// still differ in the rewritten binary they select), and the scale — covers
// every input that can change a result.
func requestKey(r *Request) (string, error) {
	cj, err := config.Canonical(r.Cfg)
	if err != nil {
		return "", fmt.Errorf("canonicalize config: %w", err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "ndpserve-req-v1|%s|%s|%d|", r.Workload, r.ModeSpec, r.Scale)
	h.Write(cj)
	return hex.EncodeToString(h.Sum(nil)), nil
}

func knownWorkload(abbr string) bool {
	for _, a := range workloads.Abbrs() {
		if a == abbr {
			return true
		}
	}
	return false
}
