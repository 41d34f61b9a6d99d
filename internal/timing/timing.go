// Package timing provides a multi-clock-domain tick engine.
//
// The simulated machine has several clock domains (Table 2): the SMs at
// 700 MHz, the crossbar at 1250 MHz, the L2 at 700 MHz, the NSUs at 350 MHz,
// and the DRAM at tCK = 1.5 ns. The engine keeps simulated time in integer
// picoseconds and fires each domain at its own period; components attached to
// a domain are ticked in registration order, once per domain period.
//
// # Idle skipping
//
// When every ticker in a domain implements IdleHint, the engine can prove
// that a stretch of upcoming edges would be empty and retire them in O(1)
// instead of firing them one by one. The invariant is that skipping is
// observationally equivalent to dense ticking: a domain edge is only retired
// when every component reported its next possible work strictly after that
// edge, hints are re-evaluated in registration order inside each step (so
// work deposited by an earlier domain at the same timestamp is seen exactly
// as it would be under dense ticking), and components that maintain
// per-cycle statistics implement IdleSkipper to batch-apply the effect of
// the retired empty ticks. The engine never skips past a scheduled event:
// a component with a timer (DRAM refresh, an epoch boundary) reports that
// time from NextWorkAt and the skip stops at the edge that would have
// observed it.
//
// # Per-component wake scheduling
//
// Domain-level skipping only pays off when the whole domain is idle; on a
// busy edge every attached component is still ticked. AttachScheduled parks
// a component on the domain's wake wheel instead: after each real tick its
// NextWorkAt is cached as a wake time, a fired edge ticks only the components
// whose wake is due (crediting the others one SkipIdle edge each, so
// per-cycle statistics stay exact), and an external event that hands a parked
// component work re-arms it immediately through Domain.Wake. A stale-early
// wake is harmless — the component ticks, proves idle again, and re-parks —
// so conservative hints and event-time wakes are always safe; only a missed
// re-arm can diverge, which Engine.SetWakeCheck turns into a loud panic for
// the equivalence suites. Components whose Tick must piggyback on every fired
// edge regardless of their own work (the invariant auditor) stay on plain
// Attach, which preserves the poll-every-edge contract exactly.
package timing

import (
	"fmt"
	"math"
	"sync/atomic"
)

// PS is a simulated time in picoseconds.
type PS = int64

// Never is returned by IdleHint.NextWorkAt when a component has no work and
// no scheduled future event.
const Never PS = math.MaxInt64

// Ticker is a component driven by a clock domain.
type Ticker interface {
	// Tick advances the component by one cycle of its clock domain.
	Tick(now PS)
}

// IdleHint is an optional interface a Ticker may implement to let the engine
// skip provably empty cycles. NextWorkAt returns the earliest absolute time
// at which the component could possibly do work: `now` (or any time <= now)
// means "busy, tick me normally", a future time promises the component will
// do nothing on any edge strictly before it, and Never promises it is fully
// drained with no scheduled events. NextWorkAt must be side-effect free on
// simulated state.
type IdleHint interface {
	NextWorkAt(now PS) PS
}

// IdleSkipper is an optional interface for tickers that mutate statistics on
// every cycle even when idle (e.g. per-cycle stall classification).
// SkipIdle(n) must apply exactly the aggregate effect that n consecutive
// empty Tick calls would have had.
type IdleSkipper interface {
	SkipIdle(cycles int64)
}

// TickFunc adapts a function to the Ticker interface.
type TickFunc func(now PS)

// Tick implements Ticker.
func (f TickFunc) Tick(now PS) { f(now) }

// Domain is one clock domain: a period and the components it drives.
type Domain struct {
	Name     string
	PeriodPS PS
	Cycles   int64 // number of cycles fired or retired-as-idle so far

	next     PS
	tickers  []Ticker
	polled   []IdleHint    // hints of polled (plain Attach) tickers, in attach order
	skippers []IdleSkipper // every attached skipper, polled and scheduled
	hintable bool          // every polled ticker implements IdleHint

	// Per-component wake scheduling (AttachScheduled): slot maps each ticker
	// to its wake-wheel slot (-1 for polled tickers); schedHint/schedSkip are
	// indexed by slot.
	slot      []int
	wheel     Wheel
	schedHint []IdleHint
	schedSkip []IdleSkipper
}

// Engine schedules a set of clock domains over integer-picosecond time.
type Engine struct {
	domains   []*Domain
	now       PS
	skip      bool
	limit     PS
	fired     bool
	wakeCheck bool
	canceled  atomic.Bool
}

// Cancel requests a cooperative stop: RunUntil returns (ok=false) at the next
// step boundary instead of advancing further. Cancel is the only Engine
// method that is safe to call from another goroutine — everything else stays
// single-threaded — which is exactly what a run watchdog needs to unwedge a
// hung simulation without racing its state.
func (e *Engine) Cancel() { e.canceled.Store(true) }

// Canceled reports whether Cancel has been called.
func (e *Engine) Canceled() bool { return e.canceled.Load() }

// NewEngine returns an empty engine at time zero with idle skipping enabled.
func NewEngine() *Engine { return &Engine{skip: true, limit: Never} }

// SetIdleSkip enables or disables idle skipping. With skipping off the
// engine fires every edge of every domain densely (the reference behaviour).
func (e *Engine) SetIdleSkip(on bool) { e.skip = on }

// IdleSkip reports whether idle skipping is enabled.
func (e *Engine) IdleSkip() bool { return e.skip }

// SetWakeCheck enables a verification mode for the equivalence suites: at
// every fired edge, each scheduled ticker elided because its cached wake lies
// in the future is re-polled live, and a hint that contradicts the cache —
// work due now on a component the wheel believes is parked — panics with the
// offender. This catches a missed external re-arm at the edge where it would
// first diverge, instead of as a downstream digest mismatch.
func (e *Engine) SetWakeCheck(on bool) { e.wakeCheck = on }

// PeriodFromMHz converts a frequency in MHz to an integer period in
// picoseconds (rounded to the nearest ps; at 700 MHz the rounding error is
// 0.03%, irrelevant at simulation fidelity).
func PeriodFromMHz(mhz int) PS {
	if mhz <= 0 {
		panic(fmt.Sprintf("timing: non-positive frequency %d MHz", mhz))
	}
	return PS(math.Round(1e6 / float64(mhz)))
}

// AddDomain registers a clock domain with the given period. The first tick
// fires at t=period (not t=0).
func (e *Engine) AddDomain(name string, periodPS PS) *Domain {
	if periodPS <= 0 {
		panic(fmt.Sprintf("timing: non-positive period %d ps for domain %s", periodPS, name))
	}
	d := &Domain{Name: name, PeriodPS: periodPS, next: periodPS, hintable: true}
	d.wheel.min = Never
	e.domains = append(e.domains, d)
	return d
}

// Attach adds a polled component to the domain: it is ticked at every fired
// edge and its IdleHint (if any) is live-polled when the engine certifies
// idle stretches. The domain stays skippable only while every polled
// component implements IdleHint.
func (d *Domain) Attach(t Ticker) {
	d.tickers = append(d.tickers, t)
	d.slot = append(d.slot, -1)
	if h, ok := t.(IdleHint); ok && d.hintable {
		d.polled = append(d.polled, h)
	} else {
		d.hintable = false
		d.polled = nil
	}
	if s, ok := t.(IdleSkipper); ok {
		d.skippers = append(d.skippers, s)
	}
}

// AttachScheduled adds a component under per-component wake scheduling: after
// each real tick its NextWorkAt is cached on the domain's wake wheel, fired
// edges before that wake elide the Tick (crediting one SkipIdle edge so
// per-cycle statistics stay exact), and external events re-arm it through
// Wake with the returned slot index. The component must implement IdleHint —
// a parked component is only ever woken by its own cached promise or an
// explicit Wake, so a missing hint would park it forever.
func (d *Domain) AttachScheduled(t Ticker) int {
	h, ok := t.(IdleHint)
	if !ok {
		panic(fmt.Sprintf("timing: AttachScheduled on domain %s requires IdleHint (%T)", d.Name, t))
	}
	d.tickers = append(d.tickers, t)
	slot := d.wheel.Add(0) // due at the first edge
	d.slot = append(d.slot, slot)
	d.schedHint = append(d.schedHint, h)
	s, _ := t.(IdleSkipper)
	d.schedSkip = append(d.schedSkip, s)
	if s != nil {
		d.skippers = append(d.skippers, s)
	}
	return slot
}

// Wake re-arms a scheduled component (by the slot AttachScheduled returned)
// to be due no later than `at` — the external-event path: a packet arrival,
// credit return, or offload ack that hands a parked component work. Waking
// earlier than necessary is always safe; the component ticks, proves idle,
// and re-parks.
func (d *Domain) Wake(slot int, at PS) { d.wheel.Wake(slot, at) }

// Now returns the current simulated time.
func (e *Engine) Now() PS { return e.now }

// effNext returns the earliest edge of d at which any component could do
// work: d.next itself unless every component proves idleness past it, in
// which case the first grid-aligned edge >= the earliest reported wake time
// (or Never if all components are fully drained).
func (d *Domain) effNext(now PS) PS {
	if !d.hintable {
		return d.next
	}
	wake := d.wheel.Min() // cached wakes of the scheduled tickers
	if wake <= d.next {
		return d.next
	}
	for _, h := range d.polled {
		if w := h.NextWorkAt(now); w < wake {
			wake = w
			if wake <= d.next {
				return d.next
			}
		}
	}
	if wake == Never {
		return Never
	}
	k := (wake - d.next + d.PeriodPS - 1) / d.PeriodPS
	return d.next + k*d.PeriodPS
}

// skipTo retires every edge of d strictly before t (which must lie on d's
// grid) as provably idle: the edges are credited to Cycles and per-cycle
// statistics are batch-applied via IdleSkipper.
func (d *Domain) skipTo(t PS) {
	n := (t - d.next) / d.PeriodPS
	if n <= 0 {
		return
	}
	d.Cycles += n
	for _, s := range d.skippers {
		s.SkipIdle(n)
	}
	d.next = t
}

// Step advances simulated time to the next edge where work can happen and
// ticks every domain with work due at that time, retiring intervening empty
// edges. It returns false if the engine has no domains.
func (e *Engine) Step() bool {
	if len(e.domains) == 0 {
		return false
	}
	if !e.skip {
		return e.stepDense()
	}
	next := Never
	for _, d := range e.domains {
		if t := d.effNext(e.now); t < next {
			next = t
		}
	}
	if next > e.limit || next == Never {
		// No work before the run limit (or at all). Mirror dense ticking,
		// which fires empty edges up to the first global edge >= the limit
		// before RunUntil notices the timeout: stop at that edge and let the
		// normal loop below retire (or fire, if a timer lands exactly there)
		// each domain's edges up to it.
		target := e.limit
		if target == Never {
			target = e.now
		}
		stop := Never
		for _, d := range e.domains {
			t := d.next
			if t < target {
				k := (target - t + d.PeriodPS - 1) / d.PeriodPS
				t += k * d.PeriodPS
			}
			if t < stop {
				stop = t
			}
		}
		next = stop
	}
	e.now = next
	e.fired = false
	for _, d := range e.domains {
		if d.next > next {
			continue
		}
		eff := d.effNext(next)
		n := (next - d.next) / d.PeriodPS
		rem := (next - d.next) % d.PeriodPS
		if eff > next {
			// Still idle through `next`: retire every edge <= next.
			d.skipTo(d.next + (n+1)*d.PeriodPS)
			continue
		}
		if rem != 0 {
			// Work appeared at `next` (deposited by an earlier domain this
			// step), but d has no edge exactly at `next`; the edges before it
			// were certified idle at step start. Retire them; the work is
			// observed at d's own next edge, as under dense ticking.
			d.skipTo(d.next + (n+1)*d.PeriodPS)
			continue
		}
		// Edge exactly at `next` with work due: retire the certified-idle
		// edges before it and fire. Polled tickers tick unconditionally;
		// scheduled tickers tick only when their cached wake is due, with the
		// elided ones credited a single idle edge (their own wake bounds the
		// elision, so a timer a component reported is never crossed).
		d.skipTo(next)
		d.Cycles++
		for i, t := range d.tickers {
			slot := d.slot[i]
			if slot < 0 {
				t.Tick(next)
				continue
			}
			if d.wheel.At(slot) > next {
				if e.wakeCheck {
					if w := d.schedHint[slot].NextWorkAt(next); w <= next {
						panic(fmt.Sprintf(
							"timing: domain %s ticker %d (%T) parked until %d but reports work at %d (now %d)",
							d.Name, i, t, d.wheel.At(slot), w, next))
					}
				}
				if s := d.schedSkip[slot]; s != nil {
					s.SkipIdle(1)
				}
				continue
			}
			t.Tick(next)
			d.wheel.Arm(slot, d.schedHint[slot].NextWorkAt(next))
		}
		d.next = next + d.PeriodPS
		e.fired = true
	}
	return true
}

// stepDense is the reference step: advance to the next edge and tick every
// domain whose edge falls at that time.
func (e *Engine) stepDense() bool {
	next := e.domains[0].next
	for _, d := range e.domains[1:] {
		if d.next < next {
			next = d.next
		}
	}
	e.now = next
	for _, d := range e.domains {
		if d.next == next {
			d.Cycles++
			for i, t := range d.tickers {
				t.Tick(next)
				if slot := d.slot[i]; slot >= 0 {
					// Keep scheduled slots due so a later switch back to
					// skipping mode never trusts a wake cached before the
					// dense stretch mutated state.
					d.wheel.Arm(slot, 0)
				}
			}
			d.next += d.PeriodPS
		}
	}
	e.fired = true
	return true
}

// RunUntil steps the engine until the predicate reports done or the time
// limit (in ps) is exceeded. It returns the number of steps taken and
// whether the predicate was satisfied (false means timeout). The predicate
// is only re-evaluated after steps in which some component actually ticked —
// steps that merely retired idle edges cannot change machine state.
func (e *Engine) RunUntil(done func() bool, limitPS PS) (steps int64, ok bool) {
	e.limit = limitPS
	check := true
	for {
		if check && done() {
			return steps, true
		}
		if e.now >= limitPS || e.canceled.Load() {
			return steps, false
		}
		if !e.Step() {
			return steps, false
		}
		steps++
		check = e.fired || !e.skip
	}
}

// CyclesAt converts a picosecond timestamp to whole cycles of the domain.
func (d *Domain) CyclesAt(t PS) int64 { return int64(t / d.PeriodPS) }

// NextBoundary returns the absolute time of the first multiple-of-interval
// cycle boundary strictly after the given cycle count — the wake time for
// components with fixed cycle-counted timers (the epoch controller, the
// metrics sampler). Reporting it from NextWorkAt guarantees idle skipping
// never retires a boundary edge.
func NextBoundary(cycles, interval int64, period PS) PS {
	return (cycles/interval + 1) * interval * period
}
