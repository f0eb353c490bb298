// Package workload builds the simulated programs: the Ocean-class and
// Water-class kernels standing in for the paper's SPLASH-2 benchmarks,
// a lock-counter microbenchmark used for correctness, and the directed
// probes behind the paper's Table 1. Each builder returns a loadable
// image plus enough host-side information to verify the run's results
// against a Go reference model.
package workload

import (
	"fmt"

	"repro/internal/codegen"
	"repro/internal/mem"
)

// Spec identifies a built workload and what it expects.
type Spec struct {
	Name    string
	Image   *mem.Image
	Threads int
	// Check verifies the final memory state; nil when the workload has
	// no host-side reference.
	Check func(s *mem.Space) error
}

// size is one named size parameter of a workload, for checkParams.
type size struct {
	name string
	v    int
}

// checkParams rejects a thread count below one and any negative size
// before code generation: the generator panics on zero threads, and a
// negative count wraps to a huge unsigned loop bound in the generated
// program, which then runs for billions of cycles.
func checkParams(bench string, threads int, sizes ...size) error {
	if threads < 1 {
		return fmt.Errorf("workload: %s needs at least one thread, got %d", bench, threads)
	}
	for _, s := range sizes {
		if s.v < 0 {
			return fmt.Errorf("workload: %s %s must not be negative, got %d", bench, s.name, s.v)
		}
	}
	return nil
}

// checkWord asserts one word of final memory.
func checkWord(s *mem.Space, addr uint32, want uint32, what string) error {
	if got := s.ReadWord(addr); got != want {
		return fmt.Errorf("workload: %s = %d, want %d", what, got, want)
	}
	return nil
}

// threadsForCPUs returns home CPU t%n for thread t — one thread per
// CPU in every experiment, matching the paper's per-processor-constant
// workload.
func addThreads(rt *codegen.Runtime, label string, n int) {
	for t := 0; t < n; t++ {
		rt.AddThread(label, uint32(t), t%rt.Layout.NumCPUs)
	}
}
