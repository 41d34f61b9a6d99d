package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"ndpgpu/internal/metrics"
)

// Watchdog sentinels — the poisonous failure classes that, repeated, send a
// request key to quarantine.
var (
	// ErrRunTimeout marks a run canceled for exceeding its total deadline
	// (Options.RunTimeout).
	ErrRunTimeout = errors.New("serve: run exceeded its deadline")
	// ErrRunStalled marks a run canceled for emitting no progress samples
	// within the stall window (Options.StallTimeout).
	ErrRunStalled = errors.New("serve: run stopped making progress")
)

// PanicError is a runner panic converted into a structured per-run error:
// the recovered value plus the goroutine stack at the point of the panic.
// The server maps it to a 500 with the panic value in the error JSON; the
// worker that caught it keeps serving.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("serve: runner panicked: %v", e.Value) }

// poisonous reports whether a run failure counts toward quarantine: panics
// and watchdog kills poison their key, ordinary run errors (bad workload,
// fault-schedule validation) do not.
func poisonous(err error) bool {
	var pe *PanicError
	return errors.As(err, &pe) || errors.Is(err, ErrRunTimeout) || errors.Is(err, ErrRunStalled)
}

// RunCtx is the per-execution control handle handed to a Runner. It carries
// cooperative cancellation from the scheduler's watchdog to the running
// simulation: the runner registers how it can be stopped (the machine's
// step-boundary stop flag) with OnCancel, and the watchdog fires every
// registered canceler at most once when the deadline or stall window trips.
type RunCtx struct {
	mu      sync.Mutex
	done    chan struct{}
	cause   error
	cancels []func()
}

func newRunCtx() *RunCtx { return &RunCtx{done: make(chan struct{})} }

// Done returns a channel closed when the run is canceled. A runner that can
// block outside the simulation (or a test stub) selects on it.
func (rc *RunCtx) Done() <-chan struct{} {
	if rc == nil {
		return nil
	}
	return rc.done
}

// Err returns the cancellation cause (ErrRunTimeout or ErrRunStalled), or
// nil while the run is still live.
func (rc *RunCtx) Err() error {
	if rc == nil {
		return nil
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.cause
}

// OnCancel registers a function invoked when the run is canceled; if the run
// is already canceled it is invoked immediately. Typical use from a runner:
// rc.OnCancel(machine.Cancel). Nil-receiver safe so runners need no guard.
func (rc *RunCtx) OnCancel(fn func()) {
	if rc == nil {
		return
	}
	rc.mu.Lock()
	canceled := rc.cause != nil
	if !canceled {
		rc.cancels = append(rc.cancels, fn)
	}
	rc.mu.Unlock()
	if canceled {
		fn()
	}
}

// cancel records the cause, closes Done, and fires the registered cancelers.
// Idempotent: only the first cause wins.
func (rc *RunCtx) cancel(cause error) {
	rc.mu.Lock()
	if rc.cause != nil {
		rc.mu.Unlock()
		return
	}
	rc.cause = cause
	fns := rc.cancels
	rc.cancels = nil
	close(rc.done)
	rc.mu.Unlock()
	for _, fn := range fns {
		fn()
	}
}

// watchdog supervises one run: a total deadline plus a progress-stall window
// fed by the epoch metrics hook (every progress event touches the guard).
// When either trips it cancels the RunCtx, which stops the simulation at its
// next step boundary.
type watchdog struct {
	guard *metrics.StallGuard // nil when stall detection is off
	stop  chan struct{}
	once  sync.Once
}

// runWatchdog starts a watchdog for rc; returns nil (a no-op) when both
// limits are disabled.
func runWatchdog(rc *RunCtx, deadline, stall time.Duration) *watchdog {
	if deadline <= 0 && stall <= 0 {
		return nil
	}
	w := &watchdog{stop: make(chan struct{})}
	if stall > 0 {
		w.guard = metrics.NewStallGuard(stall)
	}
	go w.loop(rc, deadline, stall)
	return w
}

// touch records run progress; nil-safe.
func (w *watchdog) touch() {
	if w != nil && w.guard != nil {
		w.guard.Touch()
	}
}

// halt dismisses the watchdog (the run finished on its own); nil-safe and
// idempotent.
func (w *watchdog) halt() {
	if w == nil {
		return
	}
	w.once.Do(func() { close(w.stop) })
}

func (w *watchdog) loop(rc *RunCtx, deadline, stall time.Duration) {
	start := time.Now()
	for {
		// Sleep until the earlier of the two pending verdicts, then re-check:
		// a touch in the meantime pushes the stall verdict out.
		wake := time.Duration(1<<62 - 1)
		if deadline > 0 {
			if left := deadline - time.Since(start); left <= 0 {
				rc.cancel(fmt.Errorf("%w (%v)", ErrRunTimeout, deadline))
				return
			} else if left < wake {
				wake = left
			}
		}
		if w.guard != nil {
			if w.guard.Stalled() {
				rc.cancel(fmt.Errorf("%w (no sample for %v)", ErrRunStalled, stall))
				return
			}
			left := stall - w.guard.SinceTouch()
			if left < time.Millisecond {
				left = time.Millisecond // boundary race: re-check shortly
			}
			if left < wake {
				wake = left
			}
		}
		timer := time.NewTimer(wake)
		select {
		case <-timer.C:
		case <-w.stop:
			timer.Stop()
			return
		}
	}
}
