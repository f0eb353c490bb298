package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/codegen"
	"repro/internal/coherence"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/workload"
)

// allocBudgetPerCycle is the committed steady-state allocation budget
// for the pinned ocean/WTI run below, in heap allocations per simulated
// cycle. The Msg pool and the value-typed directory state put the
// steady state at (close to) zero: after warm-up the only sanctioned
// hot-path allocations are pool misses at a new in-flight high-water
// mark and first-touch page/queue growth, all of which decay to nothing
// once the run is warm. The budget leaves headroom for GC-internal
// bookkeeping; a regression that reintroduces a per-transaction
// allocation (one Msg per protocol message, at roughly one message per
// a few cycles here) lands orders of magnitude above it.
const allocBudgetPerCycle = 0.01

// TestSteadyStateAllocBudget pins the zero-alloc steady state on a
// pinned ocean/WTI point: warm the system past its pool and queue
// growth, then count heap allocations over a measured span of cycles.
// It runs stepped and sleeping (the wake wheel and the awake set must
// not allocate either). Fails go test when the committed budget is
// exceeded.
func TestSteadyStateAllocBudget(t *testing.T) {
	for _, disableSleep := range []bool{true, false} {
		t.Run(fmt.Sprintf("sleep=%t", !disableSleep), func(t *testing.T) {
			allocBudget(t, disableSleep)
		})
	}
}

func allocBudget(t *testing.T, disableSleep bool) {
	spec, err := workload.BuildOcean(mem.DefaultLayout(4), codegen.DS,
		workload.OceanParams{Threads: 4, RowsPerThread: 8, Iters: 40})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(coherence.WTI, mem.Arch2, 4)
	cfg.DisableSleep = disableSleep
	sys, err := Build(cfg, spec.Image)
	if err != nil {
		t.Fatal(err)
	}

	// Warm-up: pools reach their in-flight high-water marks, ports and
	// NoC queues their steady capacities, the page table its footprint.
	const warmCycles, measureCycles = 60_000, 100_000
	if _, err := sys.Engine.Run(warmCycles, func() bool { return false }); err != nil {
		if _, ok := err.(*sim.ErrDeadline); !ok {
			t.Fatal(err)
		}
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := sys.Engine.Run(measureCycles, func() bool { return false }); err != nil {
		if _, ok := err.(*sim.ErrDeadline); !ok {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if sys.AllHalted() {
		t.Fatal("workload halted inside the measured span; grow the pinned point")
	}

	allocs := after.Mallocs - before.Mallocs
	perCycle := float64(allocs) / float64(measureCycles)
	t.Logf("steady state: %d allocs over %d cycles = %.5f allocs/cycle (budget %.3f)",
		allocs, measureCycles, perCycle, allocBudgetPerCycle)
	if perCycle > allocBudgetPerCycle {
		t.Fatalf("steady-state allocation budget exceeded: %.5f allocs/cycle > %.3f "+
			"(a per-transaction allocation crept back onto the hot path; "+
			"see hotalloc.allow and internal/coherence/msgpool.go)",
			perCycle, allocBudgetPerCycle)
	}
}
