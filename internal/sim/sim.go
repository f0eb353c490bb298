// Package sim provides the cycle-stepped simulation kernel used by every
// hardware model in this repository.
//
// The kernel is deliberately simple: a global cycle counter, a set of
// Tickers advanced once per cycle in registration order, and latched
// message ports. All inter-component communication goes through ports,
// and a message sent at cycle t becomes visible at cycle t+1 at the
// earliest, so the relative tick order of components cannot change
// simulation results. This is the property that makes the whole model
// deterministic and makes the protocol comparison fair.
//
// Sleep/wake. A component registered with RegisterSleeper may put
// itself to sleep from its own Tick when it cannot make progress
// (Handle.Sleep): until a cycle it already knows (an FPU result, a
// queued message's not-before time, a packet's arrival), or until
// another component wakes it (Handle.Wake, Handle.WakeAt). The engine
// keeps the awake set, iterated in registration order, plus a wake
// wheel keyed by cycle; sleeping components are not ticked at all. A
// component woken during cycle t runs at its next slot in registration
// order: at t when its slot is still ahead, at t+1 otherwise — which
// is exactly when a stepped component would first have observed the
// waker's effect. On waking, a component whose skipped ticks would have
// advanced per-cycle counters catches them up (CatchUpper); the engine
// also catches every sleeper up before each Every hook and before Run
// returns, so statistics read at those points match a stepped run.
// When nothing is awake, Run leaps in O(1) to the wheel's minimum.
//
// Within one cycle the order is: the ticks of the awake set in
// registration order, then the Every hooks, then — from Run — the
// watchdogs.
package sim

import (
	"fmt"
	"math/bits"
)

// Ticker is any component advanced once per simulated cycle.
type Ticker interface {
	// Tick advances the component by one cycle. now is the cycle being
	// executed.
	Tick(now uint64)
}

// TickFunc adapts a function to the Ticker interface.
type TickFunc func(now uint64)

// Tick implements Ticker.
func (f TickFunc) Tick(now uint64) { f(now) }

// CatchUpper is implemented by sleepers whose skipped ticks would have
// advanced per-cycle counters (a stalled CPU bumps its stall counter
// on every retry). CatchUp(from, to) must apply exactly the counter
// increments that ticking cycles [from, to) in the component's sleep
// state would have applied, and nothing else. The engine calls it when
// the component wakes and at every catch-up point (Every hooks, the
// end of Run), with contiguous spans.
type CatchUpper interface {
	CatchUp(from, to uint64)
}

// NoWake is the Sleep argument meaning "until another component wakes
// me".
const NoWake = ^uint64(0)

// Handle is a registered sleeper's link to its engine. The zero Handle
// is inert — every method is a no-op — so components work unchanged
// outside a sleeping engine (-nosleep, unit tests that drive them by
// hand).
type Handle struct {
	e  *Engine
	id int32
}

// Sleep puts the component to sleep from its own Tick(now): it is not
// ticked again before cycle until, or before another component wakes
// it. until must cover every event already visible in the component's
// state; wakers only report events that happen while it sleeps.
// until <= now+1 keeps the component awake.
func (h Handle) Sleep(until uint64) {
	if h.e != nil {
		h.e.sleep(int(h.id), until)
	}
}

// Wake wakes the component now: it runs at its next slot in
// registration order. A no-op while the component is awake.
func (h Handle) Wake() {
	if h.e != nil {
		h.e.resume(int(h.id))
	}
}

// WakeAt makes a sleeping component run no later than cycle at (at the
// current cycle or earlier means Wake). A no-op while the component is
// awake: an awake component accounts for the event itself when it next
// chooses to sleep.
func (h Handle) WakeAt(at uint64) {
	if h.e != nil {
		h.e.wakeAt(int(h.id), at)
	}
}

// Engine drives a set of Tickers cycle by cycle.
type Engine struct {
	now     uint64
	tickers []Ticker
	names   []string

	// Sleep/wake state, indexed by registration order. awake is the
	// awake set as a bitset; asleep[i] marks a sleeper whose ticks are
	// being skipped since cycle from[i]; catchUp[i] is non-nil when
	// tickers[i] implements CatchUpper. slot is the index of the ticker
	// executing, or -1 outside the tick loop.
	awake   []uint64
	nAwake  int
	asleep  []bool
	from    []uint64
	catchUp []CatchUpper
	wheel   wakeWheel
	slot    int
	noSleep bool

	// ticks counts executed component ticks.
	ticks uint64

	periodics []periodic
	watchdogs []func(now uint64) error
}

// periodic is a sampling hook run every interval cycles, after all
// tickers of that cycle.
type periodic struct {
	interval uint64
	fn       func(now uint64)
}

// NewEngine returns an empty engine at cycle zero.
func NewEngine() *Engine { return &Engine{slot: -1} }

// Now reports the current cycle.
func (e *Engine) Now() uint64 { return e.now }

// Ticks reports how many component ticks the engine has executed. A
// stepped engine (DisableSleep) executes every registered component
// every cycle; the difference is the work sleeping saved. The count is
// deterministic, so it can be compared exactly across hosts.
func (e *Engine) Ticks() uint64 { return e.ticks }

// Register adds an always-awake ticker to the engine. Tickers run every
// cycle in registration order. The name is used in diagnostics only.
func (e *Engine) Register(name string, t Ticker) {
	e.add(name, t)
}

// RegisterSleeper adds a ticker that may sleep, returning the Handle it
// sleeps through and others wake it through. After DisableSleep the
// Handle is inert and the ticker runs every cycle like any other.
func (e *Engine) RegisterSleeper(name string, t Ticker) Handle {
	id := e.add(name, t)
	if e.noSleep {
		return Handle{}
	}
	if cu, ok := t.(CatchUpper); ok {
		e.catchUp[id] = cu
	}
	return Handle{e: e, id: int32(id)}
}

// DisableSleep makes every later RegisterSleeper return an inert
// Handle: each component is then ticked every cycle. Results are
// byte-identical either way; the switch is the naive side of the
// equivalence tests and the A/B for timing. Call it before registering.
func (e *Engine) DisableSleep() { e.noSleep = true }

// add appends t to every per-ticker table, awake, and returns its id.
func (e *Engine) add(name string, t Ticker) int {
	id := len(e.tickers)
	e.tickers = append(e.tickers, t)
	e.names = append(e.names, name)
	e.asleep = append(e.asleep, false)
	e.from = append(e.from, 0)
	e.catchUp = append(e.catchUp, nil)
	e.wheel.add()
	if id>>6 >= len(e.awake) {
		e.awake = append(e.awake, 0)
	}
	e.awake[id>>6] |= 1 << (id & 63)
	e.nAwake++
	return id
}

// sleep implements Handle.Sleep.
func (e *Engine) sleep(id int, until uint64) {
	if until <= e.now+1 {
		return
	}
	if !e.asleep[id] {
		e.asleep[id] = true
		e.from[id] = e.now + 1
		e.awake[id>>6] &^= 1 << (id & 63)
		e.nAwake--
	}
	if until != NoWake {
		e.wheel.set(id, until)
	} else {
		e.wheel.remove(id)
	}
}

// resume implements Handle.Wake: the component rejoins the awake set
// and catches up the cycles it slept through, up to the cycle it will
// next tick in — the current one if its slot is still ahead, else the
// next.
func (e *Engine) resume(id int) {
	if !e.asleep[id] {
		return
	}
	e.asleep[id] = false
	e.wheel.remove(id)
	at := e.now
	if id <= e.slot {
		at++
	}
	if cu := e.catchUp[id]; cu != nil && at > e.from[id] {
		cu.CatchUp(e.from[id], at)
	}
	e.awake[id>>6] |= 1 << (id & 63)
	e.nAwake++
}

// wakeAt implements Handle.WakeAt.
func (e *Engine) wakeAt(id int, at uint64) {
	if !e.asleep[id] {
		return
	}
	if at <= e.now {
		e.resume(id)
		return
	}
	e.wheel.lower(id, at)
}

// catchUpAll brings every sleeper's counters up to the current cycle:
// the catch-up point before Every hooks and at the end of Run.
func (e *Engine) catchUpAll() {
	for id, cu := range e.catchUp {
		if cu != nil && e.asleep[id] && e.from[id] < e.now {
			cu.CatchUp(e.from[id], e.now)
			e.from[id] = e.now
		}
	}
}

// nextAwake returns the first awake ticker index >= i, or -1. It reads
// the live bitset, so a component woken ahead of the current slot is
// picked up in the same cycle.
func (e *Engine) nextAwake(i int) int {
	w := i >> 6
	if w >= len(e.awake) {
		return -1
	}
	b := e.awake[w] &^ (1<<(i&63) - 1)
	for b == 0 {
		w++
		if w == len(e.awake) {
			return -1
		}
		b = e.awake[w]
	}
	return w<<6 | bits.TrailingZeros64(b)
}

// Every registers fn to run each time interval further cycles have
// completed (at cycles interval, 2*interval, ...), after every ticker
// of that cycle and after every sleeper has been caught up. It is the
// observability sampling hook: fn must only observe state, never mutate
// it, so registered hooks cannot change simulation results. interval
// must be positive.
func (e *Engine) Every(interval uint64, fn func(now uint64)) {
	if interval == 0 {
		panic("sim: Every needs a positive interval")
	}
	e.periodics = append(e.periodics, periodic{interval: interval, fn: fn})
}

// Watchdog registers a liveness check polled by Run once per executed
// cycle, after all tickers of that cycle. A non-nil error aborts the
// run immediately with that error — before the deadline would fire —
// so a stuck transaction surfaces as its own diagnostic instead of the
// anonymous ErrDeadline thousands of cycles later. fn must only
// observe state, never mutate it: registering a watchdog cannot change
// simulation results. Runs with no registered watchdog pay nothing.
func (e *Engine) Watchdog(fn func(now uint64) error) {
	e.watchdogs = append(e.watchdogs, fn)
}

// Step advances the simulation by exactly one cycle: wake the sleepers
// due this cycle, tick the awake set in registration order, then run
// the Every hooks.
//
// Step is the per-cycle engine loop, the hot-path root everything else
// hangs off: allocations anywhere it reaches are gated by simlint's
// hotalloc analyzer against the committed hotalloc.allow worklist.
//
//lint:hot
func (e *Engine) Step() {
	now := e.now
	for {
		at, ok := e.wheel.min()
		if !ok || at > now {
			break
		}
		e.resume(e.wheel.pop())
	}
	for i := e.nextAwake(0); i >= 0; i = e.nextAwake(i + 1) {
		e.slot = i
		e.tickers[i].Tick(now)
		e.ticks++
	}
	e.slot = -1
	e.now++
	e.firePeriodics()
}

// firePeriodics runs the Every hooks due at the current cycle, catching
// every sleeper up first so the hooks observe stepped-equivalent
// counters.
func (e *Engine) firePeriodics() {
	caught := false
	for i := range e.periodics {
		p := &e.periodics[i]
		if e.now%p.interval == 0 {
			if !caught {
				e.catchUpAll()
				caught = true
			}
			p.fn(e.now)
		}
	}
}

// ErrDeadline is returned by Run when maxCycles elapse before done()
// reports true.
type ErrDeadline struct {
	Cycles uint64
}

func (e *ErrDeadline) Error() string {
	return fmt.Sprintf("sim: deadline of %d cycles reached before completion", e.Cycles)
}

// Run advances the simulation until done() reports true, checking the
// predicate once per cycle after all tickers have run. It returns the
// number of cycles elapsed (executed plus leaped). If maxCycles is
// non-zero and elapses first, Run stops and returns ErrDeadline. Every
// sleeper is caught up before Run returns, on every path.
//
// When nothing is awake, Run leaps e.now to the wake wheel's minimum
// instead of stepping empty cycles (see leap). The done and deadline
// checks run before every leap and every step, so a predicate that
// becomes true (or a deadline that expires) is observed at the exact
// cycle stepped execution would have observed it. Watchdogs are not
// polled inside a leaped span: nothing changes there, so a watchdog
// that would fire during it already fired after the last executed
// cycle.
func (e *Engine) Run(maxCycles uint64, done func() bool) (uint64, error) {
	defer e.catchUpAll()
	start := e.now
	for {
		if done() {
			return e.now - start, nil
		}
		if maxCycles != 0 && e.now-start >= maxCycles {
			return e.now - start, &ErrDeadline{Cycles: maxCycles}
		}
		if e.nAwake == 0 && e.leap(start, maxCycles) {
			continue
		}
		e.Step()
		for _, w := range e.watchdogs {
			if err := w(e.now); err != nil {
				return e.now - start, err
			}
		}
	}
}

// leap advances e.now over cycles in which no component is awake: to
// the wake wheel's minimum, clamped to the deadline, and cut at the
// next Every-hook boundary so each hook fires at its cycle with every
// sleeper caught up. It reports whether it advanced e.now. With no
// timed wake and no deadline there is nowhere to leap to; Run keeps
// stepping (empty cycles) so done() can still end the run.
func (e *Engine) leap(start, maxCycles uint64) bool {
	target, ok := e.wheel.min()
	if !ok {
		target = NoWake
	}
	if maxCycles != 0 {
		if deadline := start + maxCycles; target > deadline {
			target = deadline
		}
	} else if !ok {
		return false
	}
	for i := range e.periodics {
		p := &e.periodics[i]
		if b := (e.now/p.interval + 1) * p.interval; b < target {
			target = b
		}
	}
	if target <= e.now {
		return false
	}
	e.now = target
	e.firePeriodics()
	return true
}
