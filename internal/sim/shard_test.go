package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// logTicker records its schedule slots into a shared log. Only valid
// on the serial schedule (SetShards(1)), where no locking is needed.
type logTicker struct {
	name string
	log  *[]string
}

func (t *logTicker) Tick(now uint64) { *t.log = append(*t.log, fmt.Sprintf("tick:%s@%d", t.name, now)) }
func (t *logTicker) Commit(now uint64) {
	*t.log = append(*t.log, fmt.Sprintf("commit:%s@%d", t.name, now))
}

// TestPhasedOrdering pins the full intra-cycle order of the sharded
// schedule: compute ticks shard-major (registration order within a
// shard), then commits in registration order regardless of shard, then
// Every hooks, then — from Run — the watchdogs.
func TestPhasedOrdering(t *testing.T) {
	var log []string
	e := NewEngine()
	// Registration order A, B, C; shard order puts B's shard first.
	e.RegisterShard(1, "A", &logTicker{name: "A", log: &log})
	e.RegisterShard(0, "B", &logTicker{name: "B", log: &log})
	e.RegisterShard(1, "C", &logTicker{name: "C", log: &log})
	e.Every(1, func(now uint64) { log = append(log, fmt.Sprintf("every@%d", now)) })
	e.SetShards(1)
	done := false
	e.Watchdog(func(now uint64) error {
		log = append(log, fmt.Sprintf("watchdog@%d", now))
		return nil
	})
	if _, err := e.Run(1, func() bool { d := done; done = true; return d }); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"tick:B@0", "tick:A@0", "tick:C@0", // shard 0, then shard 1 in registration order
		"commit:A@0", "commit:B@0", "commit:C@0", // registration order
		"every@1",
		"watchdog@1",
	}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("schedule order:\n got %v\nwant %v", log, want)
	}
}

// ringNode is a toy BSP component: it consumes latched tokens from its
// inbox during the compute phase and forwards an incremented token to
// its successor at commit. Cross-shard communication happens only via
// ports and only in Commit — the model the real system follows.
type ringNode struct {
	in   *Port[uint64]
	next *Port[uint64]
	sum  uint64
	have bool
	val  uint64
}

func (r *ringNode) Tick(now uint64) {
	for {
		v, ok := r.in.Recv(now)
		if !ok {
			break
		}
		r.sum += v
		r.val = v + 1
		r.have = true
	}
}

func (r *ringNode) Commit(now uint64) {
	if r.have {
		r.next.Send(r.val, now+1)
		r.have = false
	}
}

// buildRing wires n ringNodes, one per shard, and seeds a token.
func buildRing(n int) (*Engine, []*ringNode) {
	e := NewEngine()
	ports := make([]*Port[uint64], n)
	for i := range ports {
		ports[i] = NewPort[uint64](0)
	}
	nodes := make([]*ringNode, n)
	for i := range nodes {
		nodes[i] = &ringNode{in: ports[i], next: ports[(i+1)%n]}
		e.RegisterShard(i, fmt.Sprintf("ring%d", i), nodes[i])
	}
	ports[0].Send(1, 0)
	return e, nodes
}

// TestShardedMatchesSerialEngine runs the same ring under the serial
// schedule and under several pool sizes; every observable (per-node
// sums, port stats, cycle count) must match exactly.
func TestShardedMatchesSerialEngine(t *testing.T) {
	const n, cycles = 8, 500
	ref, refNodes := buildRing(n)
	ref.SetShards(1)
	for i := 0; i < cycles; i++ {
		ref.Step()
	}
	for _, workers := range []int{2, 3, 8, 32} {
		e, nodes := buildRing(n)
		e.SetShards(workers)
		for i := 0; i < cycles; i++ {
			e.Step()
		}
		e.StopPool()
		if e.Now() != ref.Now() {
			t.Fatalf("workers=%d: cycle %d, want %d", workers, e.Now(), ref.Now())
		}
		for i := range nodes {
			if nodes[i].sum != refNodes[i].sum {
				t.Fatalf("workers=%d: node %d sum %d, want %d",
					workers, i, nodes[i].sum, refNodes[i].sum)
			}
			if nodes[i].in.Len() != refNodes[i].in.Len() {
				t.Fatalf("workers=%d: node %d port depth %d, want %d",
					workers, i, nodes[i].in.Len(), refNodes[i].in.Len())
			}
		}
	}
}

// commitEvery is Phased with an empty compute phase — the NoC shard's
// shape.
type commitEvery struct {
	commits uint64
}

func (d *commitEvery) Tick(uint64)       {}
func (d *commitEvery) Commit(now uint64) { d.commits++ }

// TestTicksSharded pins that the sharded schedule has no sleep logic:
// every registered ticker runs (and commits) every cycle, the executed
// tick count is tickers × cycles, and it is identical across pool
// sizes.
func TestTicksSharded(t *testing.T) {
	const cycles = 100
	for _, workers := range []int{1, 4} {
		e := NewEngine()
		ci := &commitEvery{}
		ticks := 0
		e.RegisterShard(0, "plain", TickFunc(func(uint64) { ticks++ }))
		e.RegisterShard(1, "committer", ci)
		e.RegisterShard(2, "busy", TickFunc(func(uint64) {}))
		e.SetShards(workers)
		for i := 0; i < cycles; i++ {
			e.Step()
		}
		e.StopPool()
		if got := e.Ticks(); got != 3*cycles {
			t.Fatalf("workers=%d: Ticks = %d, want %d", workers, got, 3*cycles)
		}
		if ticks != cycles || ci.commits != cycles {
			t.Fatalf("workers=%d: ticks/commits = %d/%d, want %d each", workers, ticks, ci.commits, cycles)
		}
	}
}

// committer records the cycle of its last commit.
type committer struct {
	last uint64
}

func (c *committer) Tick(uint64)       {}
func (c *committer) Commit(now uint64) { c.last = now }

// TestWatchdogAfterCommit pins the Run-loop ordering under the sharded
// schedule: the watchdog polled at cycle t observes the commits of
// cycle t, exactly as on the serial schedule.
func TestWatchdogAfterCommit(t *testing.T) {
	e := NewEngine()
	c := &committer{}
	e.RegisterShard(0, "c", c)
	e.RegisterShard(1, "other", TickFunc(func(uint64) {}))
	e.SetShards(2)
	var polled []uint64
	e.Watchdog(func(now uint64) error {
		if c.last != now-1 {
			t.Fatalf("watchdog at now=%d saw commit of cycle %d; commits must precede watchdogs", now, c.last)
		}
		polled = append(polled, now)
		return nil
	})
	cycles := 0
	if _, err := e.Run(10, func() bool { cycles++; return cycles > 3 }); err != nil {
		t.Fatal(err)
	}
	e.StopPool()
	if !reflect.DeepEqual(polled, []uint64{1, 2, 3}) {
		t.Fatalf("watchdog polls = %v, want [1 2 3]", polled)
	}
}

// TestStopPoolIdempotentRestart exercises the pool lifecycle: stop is
// idempotent, safe before any parallel step, and a stopped engine
// restarts its pool transparently on the next Step.
func TestStopPoolIdempotentRestart(t *testing.T) {
	e, nodes := buildRing(4)
	e.StopPool() // no pool yet: must be a no-op
	e.SetShards(4)
	for i := 0; i < 50; i++ {
		e.Step()
	}
	e.StopPool()
	e.StopPool() // idempotent
	for i := 0; i < 50; i++ {
		e.Step() // pool restarts
	}
	e.StopPool()
	var total uint64
	for _, n := range nodes {
		total += n.sum
	}
	// The token walks one hop every 2 cycles (commit at t, visible t+1,
	// consumed t+1, forwarded at t+1 arriving t+2): 100 cycles move it
	// ~50 hops, each adding its incremented value to exactly one node.
	if total == 0 {
		t.Fatal("ring made no progress across a pool restart")
	}
	// Equivalence with an uninterrupted serial run of the same length.
	ref, refNodes := buildRing(4)
	for i := 0; i < 100; i++ {
		ref.Step()
	}
	for i := range nodes {
		if nodes[i].sum != refNodes[i].sum {
			t.Fatalf("node %d sum %d after restart, want %d", i, nodes[i].sum, refNodes[i].sum)
		}
	}
}

// TestShardedPoolRace is primarily a -race target (the Makefile race
// matrix runs this package): many shards, many cycles, maximum
// concurrency between compute phases and the barrier.
func TestShardedPoolRace(t *testing.T) {
	e, _ := buildRing(16)
	e.SetShards(16)
	for i := 0; i < 2000; i++ {
		e.Step()
	}
	e.StopPool()
}
