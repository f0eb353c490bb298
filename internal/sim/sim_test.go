package sim

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

func TestEngineTickOrderAndCount(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Register("a", TickFunc(func(now uint64) { order = append(order, "a") }))
	e.Register("b", TickFunc(func(now uint64) { order = append(order, "b") }))
	e.Step()
	e.Step()
	want := []string{"a", "b", "a", "b"}
	if len(order) != len(want) {
		t.Fatalf("got %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("tick order %v, want %v", order, want)
		}
	}
	if e.Now() != 2 {
		t.Fatalf("Now() = %d, want 2", e.Now())
	}
}

func TestEngineRunUntilDone(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Register("c", TickFunc(func(now uint64) { count++ }))
	cycles, err := e.Run(0, func() bool { return count >= 10 })
	if err != nil {
		t.Fatal(err)
	}
	if cycles != 10 || count != 10 {
		t.Fatalf("cycles=%d count=%d", cycles, count)
	}
}

func TestEngineDeadline(t *testing.T) {
	e := NewEngine()
	ticks := 0
	e.Register("t", TickFunc(func(now uint64) { ticks++ }))
	cycles, err := e.Run(5, func() bool { return false })
	var dl *ErrDeadline
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if dl.Cycles != 5 {
		t.Fatalf("deadline cycles = %d", dl.Cycles)
	}
	if cycles != 5 || ticks != 5 {
		t.Fatalf("cycles=%d ticks=%d, want 5 each", cycles, ticks)
	}
	if dl.Error() == "" {
		t.Fatal("empty deadline message")
	}
	// The deadline leaves the engine usable: a later Run resumes from
	// the current cycle with a fresh budget.
	done := false
	e.Register("d", TickFunc(func(now uint64) { done = now >= 7 }))
	cycles, err = e.Run(5, func() bool { return done })
	// Resumes at cycle 5; the ticker first sees now=7 on the third step.
	if err != nil || cycles != 3 {
		t.Fatalf("resumed Run = %d, %v", cycles, err)
	}
}

func TestEngineDeadlineNotHitWhenDoneFirst(t *testing.T) {
	// done is checked before the budget, so finishing exactly at
	// maxCycles is success, not ErrDeadline.
	e := NewEngine()
	count := 0
	e.Register("c", TickFunc(func(now uint64) { count++ }))
	cycles, err := e.Run(3, func() bool { return count >= 3 })
	if err != nil || cycles != 3 {
		t.Fatalf("Run = %d, %v; want 3, nil", cycles, err)
	}
}

func TestEngineWatchdogAbortsRun(t *testing.T) {
	e := NewEngine()
	ticks := 0
	e.Register("t", TickFunc(func(now uint64) { ticks++ }))
	wantErr := errors.New("transaction stuck")
	polled := []uint64{}
	e.Watchdog(func(now uint64) error {
		polled = append(polled, now)
		if now >= 3 {
			return wantErr
		}
		return nil
	})
	cycles, err := e.Run(100, func() bool { return false })
	if !errors.Is(err, wantErr) {
		t.Fatalf("Run error = %v; want the watchdog's error", err)
	}
	if cycles != 3 || ticks != 3 {
		t.Fatalf("cycles=%d ticks=%d; want the run aborted right at the failing poll", cycles, ticks)
	}
	// Polled once per executed cycle, after that cycle's tickers.
	if len(polled) != 3 || polled[0] != 1 || polled[2] != 3 {
		t.Fatalf("watchdog polled at %v; want [1 2 3]", polled)
	}
}

func TestEngineWatchdogQuietWhenHealthy(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Register("c", TickFunc(func(now uint64) { count++ }))
	calls := 0
	e.Watchdog(func(now uint64) error { calls++; return nil })
	cycles, err := e.Run(0, func() bool { return count >= 5 })
	if err != nil || cycles != 5 {
		t.Fatalf("Run = %d, %v; want 5 clean cycles", cycles, err)
	}
	if calls != 5 {
		t.Fatalf("watchdog polled %d times; want once per cycle", calls)
	}
}

func TestEngineEveryRunsAfterTickersOfItsCycle(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Register("t", TickFunc(func(now uint64) {
		order = append(order, "tick")
	}))
	e.Every(2, func(now uint64) {
		// The hook sees the cycle count *after* the tickers of the
		// completed cycle: it fires at cycles 2, 4, ...
		if now%2 != 0 {
			t.Errorf("hook at now=%d, want multiple of 2", now)
		}
		order = append(order, "every")
	})
	for i := 0; i < 4; i++ {
		e.Step()
	}
	want := []string{"tick", "tick", "every", "tick", "tick", "every"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// sleeper is a scripted RegisterSleeper component: it records the
// cycles it ticks at, then sleeps until plan(now) (0 = stay awake). Its
// CatchUp records every span the engine charges it for.
type sleeper struct {
	h     Handle
	plan  func(now uint64) uint64
	ticks []uint64
	spans [][2]uint64
}

func (s *sleeper) Tick(now uint64) {
	s.ticks = append(s.ticks, now)
	if until := s.plan(now); until != 0 {
		s.h.Sleep(until)
	}
}

func (s *sleeper) CatchUp(from, to uint64) {
	s.spans = append(s.spans, [2]uint64{from, to})
}

func addSleeper(e *Engine, plan func(now uint64) uint64) *sleeper {
	s := &sleeper{plan: plan}
	s.h = e.RegisterSleeper("s", s)
	return s
}

func TestEngineIdleSkip(t *testing.T) {
	// A sleeping component is not ticked; plain tickers and the cycle
	// count advance as always; a wake brings it back, and the executed
	// tick counter sees only the ticks that ran.
	e := NewEngine()
	s := addSleeper(e, func(now uint64) uint64 {
		if now == 1 {
			return NoWake
		}
		return 0
	})
	plainTicks := 0
	e.Register("plain", TickFunc(func(now uint64) {
		plainTicks++
		if now == 4 {
			s.h.Wake() // slot already passed this cycle: runs at 5
		}
	}))
	for i := 0; i < 6; i++ {
		e.Step()
	}
	if !equalU64(s.ticks, []uint64{0, 1, 5}) {
		t.Fatalf("sleeper ticked at %v; want [0 1 5]", s.ticks)
	}
	if plainTicks != 6 || e.Now() != 6 {
		t.Fatalf("plainTicks=%d now=%d", plainTicks, e.Now())
	}
	if e.Ticks() != 3+6 {
		t.Fatalf("Ticks = %d, want 9", e.Ticks())
	}
	// Catch-up covered exactly the skipped cycles 2..4.
	if len(s.spans) != 1 || s.spans[0] != [2]uint64{2, 5} {
		t.Fatalf("catch-up spans %v; want [[2 5]]", s.spans)
	}
}

func TestWakeRunsAtNextSlot(t *testing.T) {
	// A component woken during cycle t runs at its next slot in
	// registration order: at t when its slot is still ahead of the
	// waker, at t+1 when it already passed.
	e := NewEngine()
	var early, late *sleeper
	sleepAtZero := func(now uint64) uint64 {
		if now == 0 {
			return NoWake
		}
		return 0
	}
	early = addSleeper(e, sleepAtZero)
	e.Register("waker", TickFunc(func(now uint64) {
		if now == 3 {
			early.h.Wake()
			late.h.Wake()
		}
	}))
	late = addSleeper(e, sleepAtZero)
	for i := 0; i < 5; i++ {
		e.Step()
	}
	if !equalU64(early.ticks, []uint64{0, 4}) || !equalU64(late.ticks, []uint64{0, 3, 4}) {
		t.Fatalf("early ticked %v (want [0 4]), late %v (want [0 3 4])", early.ticks, late.ticks)
	}
	if early.spans[0] != [2]uint64{1, 4} || late.spans[0] != [2]uint64{1, 3} {
		t.Fatalf("catch-up spans early %v late %v", early.spans, late.spans)
	}
}

func TestWakeAtKeepsEarliest(t *testing.T) {
	// WakeAt lowers a sleeper's timed wake but never postpones it, and
	// is ignored while the component is awake.
	e := NewEngine()
	s := addSleeper(e, func(now uint64) uint64 {
		if now == 0 {
			return 20
		}
		return NoWake
	})
	e.Step() // s sleeps until 20
	s.h.WakeAt(30)
	s.h.WakeAt(8)
	s.h.WakeAt(12)
	if _, err := e.Run(40, func() bool { return false }); err == nil {
		t.Fatal("want ErrDeadline")
	}
	if !equalU64(s.ticks, []uint64{0, 8}) {
		t.Fatalf("ticked at %v; want [0 8]", s.ticks)
	}
}

func TestLeapFiresEveryCrossedHookBoundary(t *testing.T) {
	// With nothing awake over [1,14), Run leaps instead of stepping, and
	// must still fire the Every(3) hook at 3, 6, 9, 12 and the Every(5)
	// hook at 5, 10 — every interval multiple the span crosses — with
	// the sleeper caught up before each, exactly as stepped execution
	// would have.
	e := NewEngine()
	s := addSleeper(e, func(now uint64) uint64 {
		if now == 0 {
			return 14
		}
		return 0
	})
	var fired3, fired5 []uint64
	e.Every(3, func(now uint64) { fired3 = append(fired3, now) })
	e.Every(5, func(now uint64) { fired5 = append(fired5, now) })
	cycles, err := e.Run(20, func() bool { return false })
	var dl *ErrDeadline
	if !errors.As(err, &dl) || cycles != 20 {
		t.Fatalf("Run = %d, %v; want the 20-cycle deadline", cycles, err)
	}
	want3 := []uint64{3, 6, 9, 12, 15, 18}
	want5 := []uint64{5, 10, 15, 20}
	if !equalU64(fired3, want3) || !equalU64(fired5, want5) {
		t.Fatalf("hooks fired at %v / %v; want %v / %v", fired3, fired5, want3, want5)
	}
	// Cycles 1..13 were leaped, so only cycles 0 and 14..19 executed.
	if len(s.ticks) != 7 || e.Ticks() != 7 {
		t.Fatalf("executed %d ticks (engine %d); want 7", len(s.ticks), e.Ticks())
	}
	// Catch-up was segmented at every hook boundary, contiguously, and
	// the last segment was charged on the wake.
	wantSpans := [][2]uint64{{1, 3}, {3, 5}, {5, 6}, {6, 9}, {9, 10}, {10, 12}, {12, 14}}
	if len(s.spans) != len(wantSpans) {
		t.Fatalf("CatchUp spans = %v; want %v", s.spans, wantSpans)
	}
	for i := range wantSpans {
		if s.spans[i] != wantSpans[i] {
			t.Fatalf("CatchUp spans = %v; want %v", s.spans, wantSpans)
		}
	}
}

func TestLeapClampedToDeadline(t *testing.T) {
	// Asleep with no timed wake and a deadline: the engine leaps
	// straight to the deadline — never past it — reports ErrDeadline at
	// the exact cycle count a stepped run would have, and catches the
	// sleeper up to it.
	e := NewEngine()
	s := addSleeper(e, func(uint64) uint64 { return NoWake })
	cycles, err := e.Run(100, func() bool { return false })
	var dl *ErrDeadline
	if !errors.As(err, &dl) || dl.Cycles != 100 {
		t.Fatalf("Run err = %v; want the 100-cycle deadline", err)
	}
	if cycles != 100 || len(s.ticks) != 1 {
		t.Fatalf("cycles=%d ticks=%d; want cycles 1..99 leaped", cycles, len(s.ticks))
	}
	if len(s.spans) != 1 || s.spans[0] != [2]uint64{1, 100} {
		t.Fatalf("catch-up spans %v; want [[1 100]]", s.spans)
	}
}

func TestLeapNoWakeWithoutDeadlineFallsBackToStepping(t *testing.T) {
	// With maxCycles 0 there is no deadline to clamp a wake-less leap
	// to: the engine must keep stepping so done() can end the run.
	e := NewEngine()
	s := addSleeper(e, func(uint64) uint64 { return NoWake })
	cycles, err := e.Run(0, func() bool { return e.Now() >= 5 })
	if err != nil || cycles != 5 {
		t.Fatalf("Run = %d, %v; want 5 stepped cycles", cycles, err)
	}
	if len(s.ticks) != 1 || e.Ticks() != 1 {
		t.Fatalf("ticks=%d engine=%d; want only cycle 0 ticked", len(s.ticks), e.Ticks())
	}
}

func TestLeapVetoedKeepsStepping(t *testing.T) {
	// A component that never sleeps (Sleep(now+1) is a no-op) keeps the
	// awake set non-empty: every cycle executes normally.
	e := NewEngine()
	s := addSleeper(e, func(now uint64) uint64 { return now + 1 })
	if _, err := e.Run(6, func() bool { return false }); err == nil {
		t.Fatal("want ErrDeadline")
	}
	if len(s.ticks) != 6 || e.Ticks() != 6 || len(s.spans) != 0 {
		t.Fatalf("ticks=%d engine=%d spans=%v; want 6 stepped, nothing caught up",
			len(s.ticks), e.Ticks(), s.spans)
	}
}

func TestLeapDoneObservedAtLeapedToCycle(t *testing.T) {
	// done() and the deadline are re-checked at the leaped-to cycle
	// before it executes: a predicate that is true there ends the run
	// without an extra Step, at the same cycle count as stepped
	// execution.
	e := NewEngine()
	s := addSleeper(e, func(now uint64) uint64 {
		if now == 0 {
			return 9
		}
		return 0
	})
	cycles, err := e.Run(50, func() bool { return e.Now() >= 9 })
	if err != nil || cycles != 9 {
		t.Fatalf("Run = %d, %v; want done at cycle 9", cycles, err)
	}
	if len(s.ticks) != 1 {
		t.Fatalf("ticks=%v; want only cycle 0 executed", s.ticks)
	}
}

func TestLeapWatchdogPolledPerExecutedCycleOnly(t *testing.T) {
	// Watchdogs observe frozen state during a leaped window, so they
	// are polled after executed cycles only — and still abort the run
	// at the first executed cycle after a leap.
	e := NewEngine()
	addSleeper(e, func(now uint64) uint64 {
		if now == 0 {
			return 10
		}
		return 0
	})
	var polled []uint64
	wantErr := errors.New("stuck")
	e.Watchdog(func(now uint64) error {
		polled = append(polled, now)
		if now >= 11 {
			return wantErr
		}
		return nil
	})
	cycles, err := e.Run(50, func() bool { return false })
	if !errors.Is(err, wantErr) || cycles != 11 {
		t.Fatalf("Run = %d, %v; want the watchdog abort at cycle 11", cycles, err)
	}
	if !equalU64(polled, []uint64{1, 11}) {
		t.Fatalf("watchdog polled at %v; want [1 11]", polled)
	}
}

// stallComp stalls (bumping a counter) until wakeAt, does one unit of
// work, then stalls again. It sleeps through its stalls and catches
// the stall counter up — the same contract a stalled CPU implements.
type stallComp struct {
	h      Handle
	wakeAt uint64
	stall  uint64
	work   int
}

func (c *stallComp) Tick(now uint64) {
	if now < c.wakeAt {
		c.stall++
		c.h.Sleep(c.wakeAt)
		return
	}
	c.work++
	c.wakeAt = now + 7
}

func (c *stallComp) CatchUp(from, to uint64) { c.stall += to - from }

func TestLeapEquivalentToSteppedRun(t *testing.T) {
	// The end-to-end cadence pin: a sleeping run and a stepped run of
	// the same component must produce identical Every-hook observation
	// sequences, identical final counters, and identical cycle counts.
	run := func(sleep bool) (snaps [][2]uint64, c *stallComp, cycles, ticks uint64) {
		e := NewEngine()
		if !sleep {
			e.DisableSleep()
		}
		c = &stallComp{}
		c.h = e.RegisterSleeper("c", c)
		e.Every(10, func(now uint64) {
			snaps = append(snaps, [2]uint64{now, c.stall})
		})
		cycles, err := e.Run(0, func() bool { return c.work >= 13 })
		if err != nil {
			t.Fatal(err)
		}
		return snaps, c, cycles, e.Ticks()
	}
	sSnaps, sComp, sCycles, sTicks := run(false)
	lSnaps, lComp, lCycles, lTicks := run(true)
	if sCycles != lCycles {
		t.Fatalf("cycle counts diverge: stepped %d, sleeping %d", sCycles, lCycles)
	}
	if sComp.stall != lComp.stall || sComp.work != lComp.work {
		t.Fatalf("final state diverges: stepped %+v, sleeping %+v", sComp, lComp)
	}
	if len(sSnaps) != len(lSnaps) {
		t.Fatalf("snapshot counts diverge: %v vs %v", sSnaps, lSnaps)
	}
	for i := range sSnaps {
		if sSnaps[i] != lSnaps[i] {
			t.Fatalf("snapshot %d diverges: stepped %v, sleeping %v", i, sSnaps[i], lSnaps[i])
		}
	}
	if lComp.stall == 0 || sCycles < 80 || sTicks != sCycles || lTicks >= sTicks/2 {
		t.Fatalf("test exercised nothing: stall=%d cycles=%d ticks stepped=%d sleeping=%d",
			lComp.stall, sCycles, sTicks, lTicks)
	}
}

func TestWakeWheelMatchesModel(t *testing.T) {
	// Random set/lower/remove/pop sequences against a flat model: the
	// wheel's pop order (earliest cycle, then lowest id) must match
	// exactly, and it never grows past the component count.
	const n = 37
	var w wakeWheel
	for i := 0; i < n; i++ {
		w.add()
	}
	var queued [n]bool
	var at [n]uint64
	rng := uint64(1)
	next := func(k uint64) uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng % k
	}
	for step := 0; step < 20000; step++ {
		id := int(next(n))
		c := next(64)
		switch next(4) {
		case 0:
			w.set(id, c)
			queued[id], at[id] = true, c
		case 1:
			w.lower(id, c)
			if !queued[id] || c < at[id] {
				queued[id], at[id] = true, c
			}
		case 2:
			w.remove(id)
			queued[id] = false
		case 3:
			best := -1
			for i := range queued {
				if queued[i] && (best < 0 || at[i] < at[best]) {
					best = i
				}
			}
			if best < 0 {
				continue
			}
			if got := w.pop(); got != best {
				t.Fatalf("step %d: pop = %d, want %d", step, got, best)
			}
			queued[best] = false
		}
		size := 0
		for _, q := range queued {
			if q {
				size++
			}
		}
		if len(w.heap) != size || cap(w.heap) < n {
			t.Fatalf("step %d: wheel holds %d, model %d", step, len(w.heap), size)
		}
	}
}

func equalU64(got, want []uint64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

func TestPortLatency(t *testing.T) {
	p := NewPort[int](0)
	p.Send(42, 10)
	if _, ok := p.Recv(9); ok {
		t.Fatal("message delivered before its cycle")
	}
	v, ok := p.Recv(10)
	if !ok || v != 42 {
		t.Fatalf("Recv = %d, %v", v, ok)
	}
	if _, ok := p.Recv(11); ok {
		t.Fatal("message delivered twice")
	}
}

func TestPortFIFOEvenWithEarlierLaterMessage(t *testing.T) {
	// A later message with an earlier ready cycle must still wait for
	// the head: ports are strictly FIFO.
	p := NewPort[string](0)
	p.Send("first", 100)
	p.Send("second", 1)
	if _, ok := p.Recv(50); ok {
		t.Fatal("second message overtook the first")
	}
	v, _ := p.Recv(100)
	if v != "first" {
		t.Fatalf("head = %q", v)
	}
	v, ok := p.Recv(100)
	if !ok || v != "second" {
		t.Fatalf("second = %q, %v", v, ok)
	}
}

func TestPortCapacity(t *testing.T) {
	p := NewPort[int](2)
	if !p.Send(1, 0) || !p.Send(2, 0) {
		t.Fatal("sends within capacity failed")
	}
	if p.Send(3, 0) {
		t.Fatal("send above capacity accepted")
	}
	if p.CanSend() {
		t.Fatal("CanSend on a full port")
	}
	p.Recv(0)
	if !p.CanSend() {
		t.Fatal("CanSend after drain")
	}
}

func TestPortPeek(t *testing.T) {
	p := NewPort[int](0)
	p.Send(7, 3)
	if _, ok := p.Peek(2); ok {
		t.Fatal("peek before ready")
	}
	v, ok := p.Peek(3)
	if !ok || v != 7 {
		t.Fatalf("peek = %d, %v", v, ok)
	}
	if p.Len() != 1 {
		t.Fatal("peek consumed the message")
	}
}

func TestPortNextAt(t *testing.T) {
	p := NewPort[int](0)
	if _, ok := p.NextAt(); ok {
		t.Fatal("NextAt on an empty port")
	}
	p.Send(1, 9)
	p.Send(2, 3)
	// FIFO: the head's cycle governs even though a later message is
	// ready earlier.
	at, ok := p.NextAt()
	if !ok || at != 9 {
		t.Fatalf("NextAt = %d, %v; want the head's cycle 9", at, ok)
	}
	p.Recv(9)
	at, ok = p.NextAt()
	if !ok || at != 3 {
		t.Fatalf("NextAt after pop = %d, %v; want 3", at, ok)
	}
}

func TestPortOrderProperty(t *testing.T) {
	// Whatever the delivery cycles, messages come out in send order.
	f := func(delays []uint8) bool {
		if len(delays) == 0 {
			return true
		}
		p := NewPort[int](0)
		for i, d := range delays {
			p.Send(i, uint64(d))
		}
		var got []int
		for now := uint64(0); now < 300; now++ {
			for {
				v, ok := p.Recv(now)
				if !ok {
					break
				}
				got = append(got, v)
			}
		}
		if len(got) != len(delays) {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPhasedOrdering pins the full intra-cycle order of the schedule:
// the awake set ticks in registration order — a sleeper woken ahead of
// its slot runs in the same cycle — then the Every hooks, then, from
// Run, the watchdogs.
func TestPhasedOrdering(t *testing.T) {
	var log []string
	note := func(s string, now uint64) { log = append(log, fmt.Sprintf("%s@%d", s, now)) }
	e := NewEngine()
	var b *sleeper
	e.Register("A", TickFunc(func(now uint64) {
		note("tick:A", now)
		if now == 1 {
			b.h.Wake()
		}
	}))
	b = addSleeper(e, func(now uint64) uint64 { note("tick:B", now); return NoWake })
	e.Register("C", TickFunc(func(now uint64) { note("tick:C", now) }))
	e.Every(1, func(now uint64) { note("every", now) })
	e.Watchdog(func(now uint64) error { note("watchdog", now); return nil })
	if _, err := e.Run(2, func() bool { return false }); err == nil {
		t.Fatal("Run ignored its deadline")
	}
	want := []string{
		"tick:A@0", "tick:B@0", "tick:C@0", "every@1", "watchdog@1",
		"tick:A@1", "tick:B@1", "tick:C@1", "every@2", "watchdog@2",
	}
	if len(log) != len(want) {
		t.Fatalf("schedule order:\n got %v\nwant %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("schedule order:\n got %v\nwant %v", log, want)
		}
	}
}

// TestWatchdogAfterCommit pins the Run-loop ordering: the watchdog
// polled after cycle t observes every tick of cycle t.
func TestWatchdogAfterCommit(t *testing.T) {
	e := NewEngine()
	var last uint64
	e.Register("c", TickFunc(func(now uint64) { last = now }))
	var polled []uint64
	e.Watchdog(func(now uint64) error {
		if last != now-1 {
			t.Fatalf("watchdog at now=%d saw the tick of cycle %d; ticks must precede watchdogs", now, last)
		}
		polled = append(polled, now)
		return nil
	})
	cycles := 0
	if _, err := e.Run(10, func() bool { cycles++; return cycles > 3 }); err != nil {
		t.Fatal(err)
	}
	if !equalU64(polled, []uint64{1, 2, 3}) {
		t.Fatalf("watchdog polls = %v, want [1 2 3]", polled)
	}
}

// TestTicksSharded pins the stepped schedule: after DisableSleep every
// registered ticker — sleepers included, whose Sleep calls become
// no-ops — runs every cycle, and the executed tick count is tickers ×
// cycles.
func TestTicksSharded(t *testing.T) {
	const cycles = 100
	e := NewEngine()
	e.DisableSleep()
	ticks := 0
	e.Register("plain", TickFunc(func(uint64) { ticks++ }))
	s := addSleeper(e, func(uint64) uint64 { return NoWake })
	for i := 0; i < cycles; i++ {
		e.Step()
	}
	if got := e.Ticks(); got != 2*cycles {
		t.Fatalf("Ticks = %d, want %d", got, 2*cycles)
	}
	if ticks != cycles || len(s.ticks) != cycles {
		t.Fatalf("plain/sleeper ticks = %d/%d, want %d each", ticks, len(s.ticks), cycles)
	}
}

// ringNode is a toy sleeper wired the way the real system is: it
// consumes latched tokens from its inbox, forwards each incremented
// token to its successor after a fixed latency, wakes the successor for
// the token's arrival, and sleeps until its own next arrival.
type ringNode struct {
	h    Handle
	in   *Port[uint64]
	next *ringNode
	sum  uint64
}

const ringHop = 3

func (r *ringNode) Tick(now uint64) {
	for {
		v, ok := r.in.Recv(now)
		if !ok {
			break
		}
		r.sum += v
		r.next.in.Send(v+1, now+ringHop)
		r.next.h.WakeAt(now + ringHop)
	}
	if at, ok := r.in.NextAt(); ok {
		r.h.Sleep(at)
	} else {
		r.h.Sleep(NoWake)
	}
}

// buildRing wires n ringNodes and seeds two tokens.
func buildRing(n int, disableSleep bool) (*Engine, []*ringNode) {
	e := NewEngine()
	if disableSleep {
		e.DisableSleep()
	}
	nodes := make([]*ringNode, n)
	for i := range nodes {
		nodes[i] = &ringNode{in: NewPort[uint64](0)}
	}
	for i, r := range nodes {
		r.next = nodes[(i+1)%n]
		r.h = e.RegisterSleeper("ring", r)
	}
	nodes[0].in.Send(1, 0)
	nodes[n/2].in.Send(100, 5)
	return e, nodes
}

// TestShardedMatchesSerialEngine runs the same ring sleeping and
// stepped: every observable (per-node sums, port depths, cycle count)
// must match exactly, and the sleeping run must have skipped ticks.
func TestShardedMatchesSerialEngine(t *testing.T) {
	const n, cycles = 8, 500
	ref, refNodes := buildRing(n, true)
	e, nodes := buildRing(n, false)
	if _, err := ref.Run(cycles, func() bool { return false }); err == nil {
		t.Fatal("stepped ring ignored its deadline")
	}
	if _, err := e.Run(cycles, func() bool { return false }); err == nil {
		t.Fatal("sleeping ring ignored its deadline")
	}
	if e.Now() != ref.Now() {
		t.Fatalf("cycle %d, want %d", e.Now(), ref.Now())
	}
	for i := range nodes {
		if nodes[i].sum != refNodes[i].sum || nodes[i].in.Len() != refNodes[i].in.Len() {
			t.Fatalf("node %d: sum %d depth %d, want %d and %d", i,
				nodes[i].sum, nodes[i].in.Len(), refNodes[i].sum, refNodes[i].in.Len())
		}
	}
	if refNodes[0].sum == 0 || e.Ticks() >= ref.Ticks() {
		t.Fatalf("vacuous: ring sum %d, ticks sleeping %d vs stepped %d", refNodes[0].sum, e.Ticks(), ref.Ticks())
	}
}
