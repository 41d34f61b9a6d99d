package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ndpgpu/internal/config"
	"ndpgpu/internal/energy"
	"ndpgpu/internal/sim"
	"ndpgpu/internal/timing"
)

// runCache memoizes completed runs by their content digest (runKey) in a
// CRC-32C journal (journal.go), so a re-sweep of already-simulated points
// costs a map lookup per point. Errors are never memoized.
type runCache struct {
	j *journal
	// simulate runs a miss: RunOneWith, or a stub that fails in tests.
	simulate func(cfg config.Config, abbr string, mode sim.Mode, scale int) *Run

	mu   sync.Mutex
	memo map[string]*outcome
}

// cache is the open run cache, or nil. Like Jobs it is set before
// experiments run (ndpsweep -cache) and read without synchronization.
var cache *runCache

// UseCache opens the run cache under dir and routes every later RunOne
// through it. Results live in a subdirectory named by the SHA-256 of the
// running executable, so a rebuilt simulator — whose timing may differ —
// starts cold instead of serving an older build's numbers. Every result is
// durable before RunOne returns; the returned function closes the cache.
func UseCache(dir string) (closeCache func() error, err error) {
	id, err := buildID()
	if err != nil {
		return nil, err
	}
	return useCache(dir, id)
}

// CacheOpen reports whether a run cache is installed.
func CacheOpen() bool { return cache != nil }

// useCache is UseCache with an explicit build identity.
func useCache(dir, id string) (func() error, error) {
	j, memo, err := openJournal(filepath.Join(dir, id))
	if err != nil {
		return nil, err
	}
	c := &runCache{j: j, memo: memo, simulate: func(cfg config.Config, abbr string, mode sim.Mode, scale int) *Run {
		return RunOneWith(cfg, abbr, mode, scale, nil)
	}}
	cache = c
	return func() error {
		cache = nil
		return c.j.close()
	}, nil
}

// buildID is the hex SHA-256 of the running executable's contents.
func buildID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", fmt.Errorf("run cache: locating executable: %w", err)
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", fmt.Errorf("run cache: %w", err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("run cache: hashing executable: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// runKey is the key a run is memoized under: the hex SHA-256 of the
// workload, the mode's canonical spelling (two modes with identical flags
// still differ in the rewritten binary they select), the scale, and the
// fully resolved configuration, which covers every other input that can
// change a result. The "ndpserve-req-v1" tag is the key's version.
func runKey(abbr string, mode sim.Mode, scale int, cfg config.Config) (string, error) {
	cj, err := config.Canonical(cfg)
	if err != nil {
		return "", fmt.Errorf("canonicalize config: %w", err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "ndpserve-req-v1|%s|%s|%d|", abbr, sim.SpecFor(mode), max(scale, 1))
	h.Write(cj)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// run answers one RunOne from the memo, or simulates it and journals the
// result before returning.
func (c *runCache) run(cfg config.Config, abbr string, mode sim.Mode, scale int) *Run {
	start := time.Now()
	key, err := runKey(abbr, mode, scale, cfg)
	if err != nil {
		return &Run{Workload: abbr, Mode: mode.Name, Cfg: cfg,
			Err: fmt.Errorf("%s/%s: run cache key: %w", abbr, mode.Name, err)}
	}
	c.mu.Lock()
	out := c.memo[key]
	c.mu.Unlock()
	if out != nil {
		tally.hits.Add(1)
		return &Run{Workload: abbr, Mode: mode.Name, Cfg: cfg, Stats: out.Stats,
			TimePS: timing.PS(out.TimePS), Wall: time.Since(start),
			Energy: energy.Compute(out.Stats, cfg, energy.DefaultParams(), mode.NDP)}
	}

	run := c.simulate(cfg, abbr, mode, scale)
	if run.Err != nil {
		return run
	}
	out = &outcome{Stats: run.Stats, TimePS: int64(run.TimePS)}
	c.mu.Lock()
	_, raced := c.memo[key] // a concurrent miss of the same key got here first
	if !raced {
		c.memo[key] = out
	}
	c.mu.Unlock()
	if !raced {
		if err := c.j.append(key, out); err != nil {
			run.Err = fmt.Errorf("%s/%s: run cache: %w", abbr, mode.Name, err)
		}
	}
	return run
}
