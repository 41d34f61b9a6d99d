// Package fault implements a deterministic, schedule-driven fault injector
// for the simulated NDP system. Faults come from an explicit event list (or
// a seeded random schedule) carried in config.FaultConfig and fire at exact
// simulated-picosecond timestamps, so a given schedule always produces the
// same fault sequence regardless of host scheduling.
//
// Supported faults:
//
//   - linkdown: an inter-HMC mesh link dies (both directions), optionally
//     for a bounded window. The fabric reroutes around it.
//   - nsustall: an NSU stops executing for a window; in-flight state is
//     preserved and execution resumes when the window closes.
//   - nsufail: an NSU dies permanently; the GPU falls back to host-side
//     execution for its blocks and quarantines the stack.
//   - vaultfreeze: a DRAM vault stops servicing requests for a window.
//   - drop / corrupt: probabilistic per-packet loss on mesh links, drawn
//     from a dedicated splitmix64 PRNG seeded from the schedule.
//
// The zero-cost contract: when config.FaultConfig.Enabled() is false no
// Injector is constructed and every consumer keeps a nil pointer, so the
// fault-free simulation takes exactly its pre-fault code paths.
package fault

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"ndpgpu/internal/config"
	"ndpgpu/internal/core"
	"ndpgpu/internal/timing"
)

// prng is a splitmix64 generator: tiny, fast, and deterministic across
// platforms (no dependence on math/rand internals).
type prng struct{ state uint64 }

func (p *prng) next() uint64 {
	p.state += 0x9e3779b97f4a7c15
	z := p.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 returns a uniform draw in [0,1).
func (p *prng) float64() float64 {
	return float64(p.next()>>11) / float64(1<<53)
}

// intn returns a uniform draw in [0,n).
func (p *prng) intn(n int) int {
	return int(p.next() % uint64(n))
}

// edge is one state transition: a fault turning on or off.
type edge struct {
	at    timing.PS
	ev    config.FaultEvent
	start bool // true = fault activates, false = window closes
}

// Injector holds the expanded fault schedule and the current fault state.
// Schedule state (Apply and the queries that call it) is single-threaded.
// The commit/abandon boards are mutex-guarded, so the GPU and the NSUs may
// post to them from different goroutines.
type Injector struct {
	cfg   config.FaultConfig
	edges []edge
	idx   int // next unapplied edge

	numHMCs   int
	numVaults int
	ring      bool

	nsuStalled []bool
	nsuFailed  []bool
	frozen     []bool   // [hmc*numVaults+vault]
	linkDead   [][]bool // [hmc][dim]

	topoVersion int // bumped on every link state change
	rng         prng

	// committed is the offload commit board: the resilient protocol's
	// commit records, shared by the GPU and all NSUs. An NSU posts here
	// atomically with applying a block's buffered writes and sending the
	// acknowledgment; a timed-out GPU warp consults it to distinguish "the
	// offload is lost, re-execute" from "the block committed and its ack is
	// already in flight on the reliable host link, keep waiting" — without
	// this record a fallback racing a committed block would re-execute
	// non-idempotent writes.
	committed map[core.OffloadID]int32

	// abandoned is the mirror-image board: the GPU posts here atomically
	// with giving up on an instance (retry exhaustion or known-dead NSU)
	// and re-executing the block host-side. The NSU consults it before
	// committing — a zombie warp that drains its last dependency just
	// after the GPU fell back must abort, not apply its now-stale stores —
	// and before reclaiming a slot, so a warp whose GPU is merely slow to
	// feed it is never killed while a retry could still arrive. One entry
	// per warp slot at most (instances are monotonic per slot), so the map
	// stays bounded without pruning.
	abandoned map[core.OffloadID]int32

	// boardMu guards the two boards above against concurrent posts from the
	// GPU and the NSUs. Operations on distinct offload IDs commute (the protocol
	// guarantees a given ID is only ever touched by its owning SM warp and
	// its current target NSU, never two writers racing on one ID), so a
	// plain mutex preserves determinism.
	boardMu sync.Mutex

	// Counters the injector itself owns (merged into stats at finalize).
	Drops    int64
	Corrupts int64
}

// New builds an Injector from a validated fault configuration. Call only
// when fc.Enabled(); fault-free runs must keep a nil *Injector. dims is the
// per-stack mesh link count; ring selects the ring topology's link naming
// (physical link j connects stacks j and j+1 and is stored at dim 0).
func New(fc config.FaultConfig, numHMCs, numVaults, dims int, ring bool) *Injector {
	inj := &Injector{
		cfg:        fc,
		numHMCs:    numHMCs,
		numVaults:  numVaults,
		ring:       ring,
		nsuStalled: make([]bool, numHMCs),
		nsuFailed:  make([]bool, numHMCs),
		frozen:     make([]bool, numHMCs*numVaults),
		linkDead:   make([][]bool, numHMCs),
		rng:        prng{state: uint64(fc.Seed)*2654435761 + 0x9e3779b97f4a7c15},
		committed:  make(map[core.OffloadID]int32),
		abandoned:  make(map[core.OffloadID]int32),
	}
	if dims < 1 {
		dims = 1
	}
	for i := range inj.linkDead {
		inj.linkDead[i] = make([]bool, dims)
	}
	for _, ev := range fc.Events {
		inj.edges = append(inj.edges, edge{at: ev.AtPS, ev: ev, start: true})
		if ev.DurPS > 0 && ev.AtPS <= math.MaxInt64-ev.DurPS {
			// A window whose end overflows int64 never closes: emit only the
			// start edge, same as an explicit permanent event.
			inj.edges = append(inj.edges, edge{at: ev.AtPS + ev.DurPS, ev: ev, start: false})
		}
	}
	sort.SliceStable(inj.edges, func(i, j int) bool { return inj.edges[i].at < inj.edges[j].at })
	return inj
}

// Apply processes every edge due at or before now. Idempotent per
// timestamp; queries call it themselves, so caller ordering within one
// engine step cannot change what a query observes.
func (inj *Injector) Apply(now timing.PS) {
	for inj.idx < len(inj.edges) && inj.edges[inj.idx].at <= now {
		e := inj.edges[inj.idx]
		inj.idx++
		switch e.ev.Kind {
		case "linkdown":
			// Canonicalize to the link's storage slot: a link is
			// bidirectional, so both endpoints' views must flip together.
			h, d := e.ev.HMC, e.ev.Dim
			if inj.ring {
				if d%2 != 0 {
					h = (h - 1 + inj.numHMCs) % inj.numHMCs
				}
				d = 0
			} else {
				d = d % len(inj.linkDead[0])
				h = h &^ (1 << uint(d))
			}
			inj.linkDead[h][d] = e.start
			inj.topoVersion++
		case "nsustall":
			inj.nsuStalled[e.ev.HMC] = e.start
		case "nsufail":
			inj.nsuFailed[e.ev.HMC] = e.start
		case "vaultfreeze":
			inj.frozen[e.ev.HMC*inj.numVaults+e.ev.Vault] = e.start
		}
	}
}

// NextEventAt returns the time of the next unapplied schedule edge, or
// timing.Never when the schedule is exhausted. Used as an idle hint so the
// engine cannot skip past a fault boundary.
func (inj *Injector) NextEventAt() timing.PS {
	if inj.idx >= len(inj.edges) {
		return timing.Never
	}
	return inj.edges[inj.idx].at
}

// NSUFailed reports whether stack i's NSU is permanently dead at now.
func (inj *Injector) NSUFailed(now timing.PS, i int) bool {
	inj.Apply(now)
	return inj.nsuFailed[i]
}

// NSUFailedApplied reports stack i's failure state as of the last Apply,
// for callers that have no current timestamp (e.g. the drain check, which
// runs after the schedule's edges have all fired through the Ticker).
func (inj *Injector) NSUFailedApplied(i int) bool { return inj.nsuFailed[i] }

// NSUStalled reports whether stack i's NSU is inside a stall window at now.
func (inj *Injector) NSUStalled(now timing.PS, i int) bool {
	inj.Apply(now)
	return inj.nsuStalled[i]
}

// VaultFrozen reports whether vault v of stack i is frozen at now.
func (inj *Injector) VaultFrozen(now timing.PS, i, v int) bool {
	inj.Apply(now)
	return inj.frozen[i*inj.numVaults+v]
}

// LinkDead reports whether the mesh link out of stack i along dimension d
// is dead at now. Links are bidirectional: the fabric must query the lower
// endpoint of the pair (see noc) so both directions die together.
func (inj *Injector) LinkDead(now timing.PS, i, d int) bool {
	inj.Apply(now)
	return inj.linkDead[i][d]
}

// TopoVersion returns a counter that changes whenever link state changes,
// letting the fabric invalidate cached escape routes lazily.
func (inj *Injector) TopoVersion(now timing.PS) int {
	inj.Apply(now)
	return inj.topoVersion
}

// CommitInstance posts the commit record for offload instance inst of id:
// the NSU applied the block's buffered writes and sent the acknowledgment,
// both in this same simulation step.
func (inj *Injector) CommitInstance(id core.OffloadID, inst int32) {
	inj.boardMu.Lock()
	inj.committed[id] = inst
	inj.boardMu.Unlock()
}

// InstanceCommitted reports whether instance inst of id has committed.
func (inj *Injector) InstanceCommitted(id core.OffloadID, inst int32) bool {
	inj.boardMu.Lock()
	v, ok := inj.committed[id]
	inj.boardMu.Unlock()
	return ok && v == inst
}

// ForgetInstance drops id's commit record once the GPU has consumed the
// acknowledgment, keeping the board bounded by the in-flight offload count.
func (inj *Injector) ForgetInstance(id core.OffloadID) {
	inj.boardMu.Lock()
	delete(inj.committed, id)
	inj.boardMu.Unlock()
}

// AbandonInstance posts the abandon record for offload instance inst of id:
// the GPU gave up on it and is re-executing the block host-side. Posted
// atomically with the stack quarantine, so the instance's unreturned
// credits are exempt from conservation by the time any checker runs.
func (inj *Injector) AbandonInstance(id core.OffloadID, inst int32) {
	inj.boardMu.Lock()
	inj.abandoned[id] = inst
	inj.boardMu.Unlock()
}

// InstanceAbandoned reports whether instance inst of id was abandoned.
func (inj *Injector) InstanceAbandoned(id core.OffloadID, inst int32) bool {
	inj.boardMu.Lock()
	v, ok := inj.abandoned[id]
	inj.boardMu.Unlock()
	return ok && v == inst
}

// DrawDrop decides the fate of one mesh packet: lost in flight, or
// discarded at the receiver's CRC check. At most one of the results is
// true. Each call consumes PRNG state, so call exactly once per packet.
func (inj *Injector) DrawDrop() (drop, corrupt bool) {
	if inj.cfg.DropProb > 0 && inj.rng.float64() < inj.cfg.DropProb {
		inj.Drops++
		return true, false
	}
	if inj.cfg.CorruptProb > 0 && inj.rng.float64() < inj.cfg.CorruptProb {
		inj.Corrupts++
		return false, true
	}
	return false, false
}

// Ticker adapts the injector to a clock domain: Tick applies due edges and
// NextWorkAt pins engine edges to schedule boundaries.
type Ticker struct{ Inj *Injector }

// Tick implements timing.Ticker.
func (t Ticker) Tick(now timing.PS) { t.Inj.Apply(now) }

// NextWorkAt implements timing.IdleHint.
func (t Ticker) NextWorkAt(now timing.PS) timing.PS { return t.Inj.NextEventAt() }

// Backoff returns the timeout for a given retry attempt in SM cycles:
// base doubling per attempt (attempt 0 = first try).
func Backoff(baseCycles int64, attempt int) int64 {
	if attempt < 0 {
		attempt = 0
	}
	if attempt > 16 {
		attempt = 16 // clamp: beyond this the shift overflows any real run
	}
	if baseCycles > math.MaxInt64>>uint(attempt) {
		return math.MaxInt64 // saturate: a timeout beyond the run is "never"
	}
	return baseCycles << uint(attempt)
}

// TotalWindow returns the sum of all attempt timeouts for maxRetries
// retries (attempts 0..maxRetries), i.e. the worst-case time the GPU waits
// before declaring host fallback. The NSU abort deadline must exceed this.
func TotalWindow(baseCycles int64, maxRetries int) int64 {
	var t int64
	for a := 0; a <= maxRetries; a++ {
		b := Backoff(baseCycles, a)
		if t > math.MaxInt64-b {
			return math.MaxInt64 // saturate rather than wrap negative
		}
		t += b
	}
	return t
}

// Parse parses the -faults schedule DSL into a FaultConfig.
//
// Grammar: events separated by ';', each event "kind:key=val:key=val...".
// Times are picoseconds. Kinds and keys:
//
//	linkdown:t=<ps>:hmc=<i>:dim=<d>[:dur=<ps>]
//	nsustall:t=<ps>:hmc=<i>:dur=<ps>
//	nsufail:t=<ps>:hmc=<i>
//	vaultfreeze:t=<ps>:hmc=<i>:vault=<v>:dur=<ps>
//	drop:p=<prob>
//	corrupt:p=<prob>
//	seed=<n>
//	timeout=<smcycles>      (first-attempt offload timeout)
//	retries=<n>             (max retries before host fallback)
//	rand:seed=<n>[:n=<k>]   (k random events, default 4, drawn deterministically)
//
// Example: "linkdown:t=2000000:hmc=0:dim=1;drop:p=0.01;seed=7"
func Parse(s string, numHMCs, numVaults int) (config.FaultConfig, error) {
	var fc config.FaultConfig
	for _, item := range strings.Split(s, ";") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		fields := strings.Split(item, ":")
		kind := fields[0]
		kv := map[string]string{}
		for _, f := range fields[1:] {
			k, v, ok := strings.Cut(f, "=")
			if !ok {
				return fc, fmt.Errorf("fault %q: malformed field %q", item, f)
			}
			kv[k] = v
		}
		geti := func(key string, def int64) (int64, error) {
			v, ok := kv[key]
			if !ok {
				return def, nil
			}
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return 0, fmt.Errorf("fault %q: bad %s=%q", item, key, v)
			}
			return n, nil
		}
		getf := func(key string) (float64, error) {
			v, ok := kv[key]
			if !ok {
				return 0, fmt.Errorf("fault %q: missing %s", item, key)
			}
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return 0, fmt.Errorf("fault %q: bad %s=%q", item, key, v)
			}
			return f, nil
		}
		switch {
		case kind == "linkdown" || kind == "nsustall" || kind == "nsufail" || kind == "vaultfreeze":
			at, err := geti("t", -1)
			if err != nil {
				return fc, err
			}
			if at < 0 {
				return fc, fmt.Errorf("fault %q: missing t=<ps>", item)
			}
			hmc, err := geti("hmc", -1)
			if err != nil {
				return fc, err
			}
			dur, err := geti("dur", 0)
			if err != nil {
				return fc, err
			}
			dim, err := geti("dim", 0)
			if err != nil {
				return fc, err
			}
			vault, err := geti("vault", 0)
			if err != nil {
				return fc, err
			}
			fc.Events = append(fc.Events, config.FaultEvent{
				Kind: kind, AtPS: at, DurPS: dur,
				HMC: int(hmc), Dim: int(dim), Vault: int(vault),
			})
		case kind == "drop":
			p, err := getf("p")
			if err != nil {
				return fc, err
			}
			fc.DropProb = p
		case kind == "corrupt":
			p, err := getf("p")
			if err != nil {
				return fc, err
			}
			fc.CorruptProb = p
		case strings.HasPrefix(kind, "seed="):
			n, err := strconv.ParseInt(strings.TrimPrefix(kind, "seed="), 10, 64)
			if err != nil {
				return fc, fmt.Errorf("bad %q", item)
			}
			fc.Seed = n
		case strings.HasPrefix(kind, "timeout="):
			n, err := strconv.ParseInt(strings.TrimPrefix(kind, "timeout="), 10, 64)
			if err != nil || n <= 0 {
				return fc, fmt.Errorf("bad %q", item)
			}
			fc.TimeoutCycles = n
		case strings.HasPrefix(kind, "retries="):
			n, err := strconv.Atoi(strings.TrimPrefix(kind, "retries="))
			if err != nil || n <= 0 {
				return fc, fmt.Errorf("bad %q", item)
			}
			fc.MaxRetries = n
		case kind == "rand":
			seed, err := geti("seed", 1)
			if err != nil {
				return fc, err
			}
			n, err := geti("n", 4)
			if err != nil {
				return fc, err
			}
			fc.Seed = seed
			fc.Events = append(fc.Events, RandomEvents(seed, int(n), numHMCs, numVaults)...)
		default:
			return fc, fmt.Errorf("unknown fault item %q", item)
		}
	}
	return fc, fc.Validate(numHMCs, numVaults)
}

// RandomEvents draws n random fault events deterministically from seed,
// spread over a window that covers the start of a typical scaled run
// (faults landing after the run drains are harmless no-ops). Used by the
// chaos suite and the rand: schedule item.
func RandomEvents(seed int64, n, numHMCs, numVaults int) []config.FaultEvent {
	p := prng{state: uint64(seed)*0x9e3779b97f4a7c15 + 1}
	dims := 0
	for 1<<uint(dims+1) <= numHMCs {
		dims++
	}
	if dims < 1 {
		dims = 1
	}
	evs := make([]config.FaultEvent, 0, n)
	const windowPS = 40_000_000 // 40 us: well inside every scaled workload
	for i := 0; i < n; i++ {
		at := int64(1_000_000 + p.intn(windowPS))
		dur := int64(500_000 + p.intn(8_000_000))
		switch p.intn(4) {
		case 0:
			evs = append(evs, config.FaultEvent{Kind: "linkdown", AtPS: at, DurPS: dur,
				HMC: p.intn(numHMCs), Dim: p.intn(dims)})
		case 1:
			evs = append(evs, config.FaultEvent{Kind: "nsustall", AtPS: at, DurPS: dur,
				HMC: p.intn(numHMCs)})
		case 2:
			evs = append(evs, config.FaultEvent{Kind: "nsufail", AtPS: at,
				HMC: p.intn(numHMCs)})
		case 3:
			evs = append(evs, config.FaultEvent{Kind: "vaultfreeze", AtPS: at, DurPS: dur,
				HMC: p.intn(numHMCs), Vault: p.intn(numVaults)})
		}
	}
	return evs
}
