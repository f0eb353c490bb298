package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Phased is the two-phase (compute/commit) ticker interface of the
// sharded BSP execution model. Tick is the compute phase: it may read
// any latched state but must confine its writes to the ticker's own
// shard (plus commutative, synchronized counters). Commit is the
// commit phase: it runs serially on the engine's goroutine after every
// ticker of the cycle has computed, in ascending registration order,
// and is the only place cross-shard effects — network injections above
// all — may happen. Because ports latch messages for at least one
// cycle, the serial commit in registration order reproduces exactly
// the injection sequence of the serial schedule, which is what keeps
// sharded runs byte-identical to -shards 1.
type Phased interface {
	Ticker
	Commit(now uint64)
}

// RegisterShard adds a ticker to the engine with an explicit shard
// affinity. Tickers of one shard run in registration order on one
// goroutine per cycle; tickers of different shards may run
// concurrently during the compute phase, so they must not share
// mutable state outside their Commit methods. Register is equivalent
// to RegisterShard(0, ...). shard must be non-negative.
//
// A non-zero shard or a Phased ticker switches the engine to the
// two-phase schedule, which ticks every registered ticker every cycle
// and has no sleep logic: register sleepers only on serial engines.
func (e *Engine) RegisterShard(shard int, name string, t Ticker) {
	if shard < 0 {
		panic("sim: RegisterShard needs a non-negative shard")
	}
	id := e.add(name, t)
	e.shards[id] = shard
	if shard != 0 || e.phased[id] != nil {
		e.bsp = true
	}
}

// SetShards sets the worker-pool size for the compute phase: up to n
// goroutines (including the caller's) tick shards concurrently.
// Values below 2 — and engines whose tickers all share one shard —
// select the serial schedule. The partition of tickers into shards is
// fixed by registration, independent of n, so results are identical
// for every n; only wall-clock time changes. Callers are responsible
// for not oversubscribing the host (see exp.ClampConcurrency).
func (e *Engine) SetShards(n int) {
	if n < 1 {
		n = 1
	}
	e.workers = n
}

// StopPool joins the compute-phase worker pool, releasing its
// goroutines. It is idempotent and safe to call on an engine that
// never went parallel; a later Step restarts the pool transparently.
// Every owner of a finite-lifetime engine (core.System.Run) should
// defer it so sweeps building thousands of systems do not leak
// goroutines.
func (e *Engine) StopPool() {
	p := e.pool
	if p == nil {
		return
	}
	e.pool = nil
	p.stop.Store(true)
	p.mu.Lock()
	p.gen.Add(1)
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// buildPlan derives the shard-major compute order and the commit order
// from the registrations. It runs lazily on the first Step after a
// registration, so harnesses that register extra tickers after Build
// (the litmus harness does) are picked up.
func (e *Engine) buildPlan() {
	nShards := 1
	for _, s := range e.shards {
		if s+1 > nShards {
			nShards = s + 1
		}
	}
	counts := make([]int, nShards+1)
	for _, s := range e.shards {
		counts[s+1]++
	}
	for i := 1; i <= nShards; i++ {
		counts[i] += counts[i-1]
	}
	e.shardStart = counts
	e.order = make([]int, len(e.tickers))
	fill := make([]int, nShards)
	copy(fill, counts[:nShards])
	for i, s := range e.shards {
		e.order[fill[s]] = i
		fill[s]++
	}
	e.commitOrder = e.commitOrder[:0]
	for i, ph := range e.phased {
		if ph != nil {
			e.commitOrder = append(e.commitOrder, i)
		}
	}
	e.nShards = nShards
	e.planOK = true
}

// stepBSP executes one cycle of the two-phase schedule: the compute
// phase (serial shard-major, or on the worker pool when SetShards asked
// for parallelism), then the commit phase in registration order.
func (e *Engine) stepBSP(now uint64) {
	if !e.planOK {
		e.buildPlan()
	}
	if p := e.parallelPool(); p != nil {
		p.runCycle(now)
	} else {
		e.runShardSet(0, 1, now)
	}
	for _, ti := range e.commitOrder {
		e.phased[ti].Commit(now)
	}
	e.ticks += uint64(len(e.tickers))
}

// runShardSet executes the compute phase of every shard s with
// s % stride == part: ticker order within a shard is registration
// order, shards ascend.
func (e *Engine) runShardSet(part, stride int, now uint64) {
	for s := part; s < e.nShards; s += stride {
		for _, ti := range e.order[e.shardStart[s]:e.shardStart[s+1]] {
			e.tickers[ti].Tick(now)
		}
	}
}

// parallelPool returns the worker pool to use for this cycle's compute
// phase, or nil when the serial schedule applies (one worker, or all
// tickers in one shard). The pool is created lazily and recreated if
// the effective participant count changes.
func (e *Engine) parallelPool() *pool {
	parts := e.workers
	if parts > e.nShards {
		parts = e.nShards
	}
	if parts <= 1 {
		return nil
	}
	if e.pool != nil && e.pool.parts == parts {
		return e.pool
	}
	e.StopPool()
	e.pool = newPool(e, parts)
	return e.pool
}

// padSlot keeps each participant's completion counter on its own cache
// line so the barrier does not false-share.
type padSlot struct {
	done atomic.Uint64 // last completed generation (workers only)
	_    [56]byte
}

// pool is the persistent compute-phase worker pool: parts-1 worker
// goroutines plus the engine's own goroutine as participant 0. Each
// cycle the engine publishes a generation, every participant ticks its
// static shard set (shard s belongs to participant s % parts), and the
// engine waits for all of them — a barrier. Workers spin briefly on
// the generation counter, then park on a condition variable, so idle
// pools cost nothing and hot pools avoid wakeup latency.
type pool struct {
	e     *Engine
	parts int

	gen  atomic.Uint64
	stop atomic.Bool
	now  uint64 // cycle under execution; published by the gen store

	mu   sync.Mutex
	cond *sync.Cond
	wg   sync.WaitGroup

	slots []padSlot
}

func newPool(e *Engine, parts int) *pool {
	p := &pool{e: e, parts: parts, slots: make([]padSlot, parts)}
	p.cond = sync.NewCond(&p.mu)
	for w := 1; w < parts; w++ {
		p.wg.Add(1)
		go p.worker(w)
	}
	return p
}

// spinIters bounds the busy-wait before a worker parks; ~a few
// microseconds of spinning covers the inter-cycle gap of a hot run.
const spinIters = 4096

// await blocks until the published generation reaches target,
// reporting false when the pool is stopping.
func (p *pool) await(target uint64) bool {
	for i := 0; i < spinIters; i++ {
		if p.gen.Load() >= target {
			return !p.stop.Load()
		}
		if i&63 == 63 {
			runtime.Gosched()
		}
	}
	p.mu.Lock()
	for p.gen.Load() < target && !p.stop.Load() {
		p.cond.Wait()
	}
	p.mu.Unlock()
	return !p.stop.Load()
}

func (p *pool) worker(w int) {
	defer p.wg.Done()
	for target := uint64(1); ; target++ {
		if !p.await(target) {
			return
		}
		p.e.runShardSet(w, p.parts, p.now)
		p.slots[w].done.Store(target)
	}
}

// runCycle executes one compute phase across the pool.
func (p *pool) runCycle(now uint64) {
	p.now = now
	p.mu.Lock()
	g := p.gen.Add(1)
	p.cond.Broadcast()
	p.mu.Unlock()
	p.e.runShardSet(0, p.parts, now)
	for w := 1; w < p.parts; w++ {
		for i := 0; p.slots[w].done.Load() < g; i++ {
			if i&63 == 63 {
				runtime.Gosched()
			}
		}
	}
}
