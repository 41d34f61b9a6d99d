package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ndpgpu/internal/experiments"
)

// TestUnknownExperimentExits2 pins the usage-error path: an unknown -exp name
// must not start any simulation, must list the valid names, and must exit 2.
func TestUnknownExperimentExits2(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-exp", "fig99"}, &out, &errBuf); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	msg := errBuf.String()
	if !strings.Contains(msg, `unknown experiment "fig99"`) {
		t.Fatalf("stderr missing the bad name: %q", msg)
	}
	for _, name := range []string{"fig5", "table1", "topology", "all"} {
		if !strings.Contains(msg, name) {
			t.Fatalf("stderr does not list valid name %s: %q", name, msg)
		}
	}
}

// TestFailingExperimentExits1 appends a deliberately failing leaf experiment
// and requires the sweep to report it in a FAILURES section and exit 1 —
// the exact path CI relies on to turn a broken experiment into a red build.
func TestFailingExperimentExits1(t *testing.T) {
	saved := leafExps
	defer func() { leafExps = saved }()
	leafExps = append(leafExps, leafExp{
		name: "alwaysfails",
		fn: func(w io.Writer, scale int) error {
			return errors.New("injected failure")
		},
	})

	var out, errBuf bytes.Buffer
	if code := run([]string{"-exp", "alwaysfails"}, &out, &errBuf); code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout: %s\nstderr: %s", code, out.String(), errBuf.String())
	}
	if !strings.Contains(out.String(), "FAILURES (1):") ||
		!strings.Contains(out.String(), "alwaysfails: injected failure") {
		t.Fatalf("missing FAILURES section: %s", out.String())
	}
	if !strings.Contains(errBuf.String(), "injected failure") {
		t.Fatalf("error not echoed to stderr: %s", errBuf.String())
	}
}

// TestFig5Succeeds runs the one experiment that needs no simulation (a pure
// Monte-Carlo estimate) end to end through run() and expects a clean exit.
func TestFig5Succeeds(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-exp", "fig5"}, &out, &errBuf); code != 0 {
		t.Fatalf("exit = %d, want 0\nstderr: %s", code, errBuf.String())
	}
	if !strings.Contains(out.String(), "[fig5 in ") {
		t.Fatalf("missing run summary: %s", out.String())
	}
}

// TestBadFlagExits2 checks flag-parse failures also land on exit 2.
func TestBadFlagExits2(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-nosuchflag"}, &out, &errBuf); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

// TestSweepCacheFlag covers the -cache wiring: a directory that cannot be
// created is a usage error (exit 2, before any experiment runs), and a
// usable one carries a sweep end to end and is closed again when run()
// returns. Hit/miss behavior is pinned by the experiments cache tests.
func TestSweepCacheFlag(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errBuf bytes.Buffer
	if code := run([]string{"-cache", file, "-exp", "fig5"}, &out, &errBuf); code != 2 {
		t.Fatalf("unusable cache dir: exit = %d, want 2\nstderr: %s", code, errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "-cache") {
		t.Fatalf("stderr does not name the -cache flag: %q", errBuf.String())
	}
	if out.Len() != 0 {
		t.Fatalf("experiments ran despite the usage error: %s", out.String())
	}

	// fig5 needs no simulation, so this exercises flag wiring and cache
	// open/close without a costly sweep.
	out.Reset()
	errBuf.Reset()
	if code := run([]string{"-cache", t.TempDir(), "-exp", "fig5"}, &out, &errBuf); code != 0 {
		t.Fatalf("exit = %d, want 0\nstderr: %s", code, errBuf.String())
	}
	if experiments.CacheOpen() {
		t.Fatal("run() left the run cache installed after returning")
	}
}
