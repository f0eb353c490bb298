package main

import (
	"fmt"
	"time"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/workload"
)

// digest is the simulated outcome of one job. It is pinned per
// workload (and, for the trace workload, per seed) in digests.json, so
// a change that makes the simulator faster by simulating something
// else fails its jobs instead of posting a gain.
type digest struct {
	Cycles          uint64 `json:"cycles"`
	Instructions    uint64 `json:"instructions"`
	NoCBytes        uint64 `json:"noc_bytes"`
	NoCPackets      uint64 `json:"noc_packets"`
	DataStallCycles uint64 `json:"data_stall_cycles"`
}

// counts are the deterministic work and wait counters of one job, read
// from the components' public stats after the run.
type counts struct {
	digest
	CPUs            int
	InstStallCycles uint64
	Loads           uint64
	Stores          uint64
	IFetches        uint64
	LoadMisses      uint64
	WBufFullStalls  uint64
	MemRequests     uint64
	InvalsSent      uint64
	Deferred        uint64
	Flits           uint64
	InjectStall     uint64
}

// instance is one set-up simulation: run is the timed call into the
// simulator, verify checks its outputs and reads its counters.
type instance interface {
	run() error
	verify() (counts, error)
}

// setupFunc builds one instance and reports how long image generation
// and platform wiring took.
type setupFunc func() (inst instance, image, build time.Duration, err error)

// workloadDef names a workload and prepares its setup for a seed. The
// preparation is the benchmark's own cost (stream generation) and stays
// outside every timing.
type workloadDef struct {
	name    string
	seeded  bool
	prepare func(seed int64) (setupFunc, error)
}

var workloads = []workloadDef{
	{name: "ocean-wti-a2-n64", prepare: splashSetup(exp.Run{
		Bench: exp.Ocean, Protocol: coherence.WTI, Arch: mem.Arch2, NumCPUs: 64,
	})},
	{name: "water-wb-a1-n16", prepare: splashSetup(exp.Run{
		Bench: exp.Water, Protocol: coherence.WBMESI, Arch: mem.Arch1, NumCPUs: 16,
	})},
	{name: "trace-hotspot-wti-n16", seeded: true, prepare: hotspotSetup},
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// splashSetup runs one SPLASH-class kernel of the paper's grid at the
// default scale. The programs are fixed, so the seed is unused.
func splashSetup(r exp.Run) func(int64) (setupFunc, error) {
	return func(int64) (setupFunc, error) {
		return func() (instance, time.Duration, time.Duration, error) {
			t0 := time.Now()
			spec, err := exp.BuildSpec(r, exp.DefaultScale())
			if err != nil {
				return nil, 0, 0, err
			}
			t1 := time.Now()
			sys, err := core.Build(core.DefaultConfig(r.Protocol, r.Arch, r.NumCPUs), spec.Image)
			if err != nil {
				return nil, 0, 0, err
			}
			return &splashInstance{spec: spec, sys: sys}, t1.Sub(t0), time.Since(t1), nil
		}, nil
	}
}

type splashInstance struct {
	spec   *workload.Spec
	sys    *core.System
	cycles uint64
}

func (s *splashInstance) run() error {
	res, err := s.sys.Run()
	if err != nil {
		return err
	}
	s.cycles = res.Cycles
	return nil
}

func (s *splashInstance) verify() (counts, error) {
	if err := s.sys.CheckCoherence(); err != nil {
		return counts{}, fmt.Errorf("coherence check: %w", err)
	}
	s.sys.FlushCaches()
	if s.spec.Check != nil {
		if err := s.spec.Check(s.sys.Space); err != nil {
			return counts{}, fmt.Errorf("result check: %w", err)
		}
	}
	return systemCounts(s.sys, s.cycles), nil
}

// systemCounts reads every component's public stats.
func systemCounts(sys *core.System, cycles uint64) counts {
	c := counts{CPUs: len(sys.CPUs)}
	c.Cycles = cycles
	for i, p := range sys.CPUs {
		st := p.Stats()
		c.Instructions += st.Instructions
		c.DataStallCycles += st.DataStallCycles
		c.InstStallCycles += st.InstStallCycles
		d := sys.DCaches[i].Stats()
		c.Loads += d.Loads
		c.Stores += d.Stores
		c.LoadMisses += d.LoadMisses
		c.WBufFullStalls += d.WBufFullStalls
		c.IFetches += sys.ICaches[i].Fetches
	}
	for _, b := range sys.Banks {
		m := b.Stats()
		c.MemRequests += m.Reads + m.ReadExcls + m.Upgrades + m.WriteThroughs +
			m.WriteBacks + m.Swaps + m.IFetches
		c.InvalsSent += m.InvalsSent
		c.Deferred += m.Deferred
	}
	n := sys.Net.Stats()
	c.NoCBytes, c.NoCPackets = n.TotalBytes, n.Packets
	c.Flits, c.InjectStall = n.TotalFlits, n.InjectStallCycles
	return c
}

// The hot-spot trace workload: 16 trace CPUs on WTI/Architecture 2,
// each with an 8 KiB private region (twice the D-cache) and a shared
// 32-byte hot block taking 5% of references; half of all references
// are stores, against 1–5% in the SPLASH kernels.
const (
	hotspotCPUs    = 16
	hotspotOps     = 40_000 // per CPU
	hotspotThink   = 2
	hotspotPrivate = 8192
	hotspotHot     = 32
)

func hotspotParams(seed int64, cpu int, l mem.Layout) trace.HotSpotParams {
	return trace.HotSpotParams{
		PrivateBase: l.PrivateSeg(cpu), PrivateSize: hotspotPrivate,
		HotBase: l.SharedBase, HotSize: hotspotHot,
		HotFrac: 0.05, StoreFrac: 0.5, Seed: seed<<8 | int64(cpu),
	}
}

// hotspotStreams draws every CPU's reference stream up front, so the
// generator's RNG cost stays outside the timed run.
func hotspotStreams(seed int64, ops int, l mem.Layout) [][]trace.Op {
	streams := make([][]trace.Op, l.NumCPUs)
	for cpu := range streams {
		g := trace.NewHotSpot(hotspotParams(seed, cpu, l))
		s := make([]trace.Op, ops)
		for i := range s {
			s[i] = g.Next()
		}
		streams[cpu] = s
	}
	return streams
}

// replay is the trace.Generator the harness runs: it hands out a
// pre-drawn stream in order.
type replay struct {
	ops  []trace.Op
	next int
}

func (r *replay) Next() trace.Op {
	op := r.ops[r.next]
	r.next++
	return op
}

func hotspotSetup(seed int64) (setupFunc, error) {
	l := mem.DefaultLayout(hotspotCPUs)
	streams := hotspotStreams(seed, hotspotOps, l)
	return func() (instance, time.Duration, time.Duration, error) {
		t0 := time.Now()
		h, err := trace.NewHarness(core.DefaultConfig(coherence.WTI, mem.Arch2, hotspotCPUs),
			func(cpu int) trace.Generator { return &replay{ops: streams[cpu]} },
			hotspotOps, hotspotThink)
		if err != nil {
			return nil, 0, 0, err
		}
		return &hotspotInstance{h: h, streams: streams}, 0, time.Since(t0), nil
	}, nil
}

type hotspotInstance struct {
	h       *trace.Harness
	streams [][]trace.Op
	res     *trace.Result
}

func (t *hotspotInstance) run() error {
	res, err := t.h.Run(0)
	if err != nil {
		return err
	}
	t.res = res
	return nil
}

func (t *hotspotInstance) verify() (counts, error) {
	var stall uint64
	for i, c := range t.res.CPUs {
		if c.Ops != uint64(len(t.streams[i])) {
			return counts{}, fmt.Errorf("trace cpu %d completed %d of %d ops", i, c.Ops, len(t.streams[i]))
		}
		stall += c.StallCycles
	}
	sys := t.h.Sys
	if err := sys.CheckCoherence(); err != nil {
		return counts{}, fmt.Errorf("coherence check: %w", err)
	}
	sys.FlushCaches()
	if err := checkFinalMemory(sys.Space, t.streams); err != nil {
		return counts{}, err
	}
	c := systemCounts(sys, t.res.Cycles)
	c.DataStallCycles = stall
	return c, nil
}

// checkFinalMemory compares final memory with the streams: a word only
// one CPU writes must hold that CPU's last store to it (zero if it
// never stored there), and a word several CPUs write must hold the last
// store of one of them.
func checkFinalMemory(space *mem.Space, streams [][]trace.Op) error {
	last := make([]map[uint32]uint32, len(streams))
	writers := map[uint32][]int{}
	for cpu, s := range streams {
		last[cpu] = map[uint32]uint32{}
		for _, op := range s {
			if !op.Store {
				continue
			}
			if _, seen := last[cpu][op.Addr]; !seen {
				writers[op.Addr] = append(writers[op.Addr], cpu)
			}
			last[cpu][op.Addr] = op.Data
		}
	}
	for cpu, s := range streams {
		for _, op := range s {
			got := space.ReadWord(op.Addr)
			ws := writers[op.Addr]
			if len(ws) == 0 {
				if got != 0 {
					return fmt.Errorf("memory %#x = %#x, never stored", op.Addr, got)
				}
				continue
			}
			ok := false
			for _, w := range ws {
				ok = ok || got == last[w][op.Addr]
			}
			if !ok {
				return fmt.Errorf("memory %#x = %#x, not the last store of any writer (cpu %d reads it)", op.Addr, got, cpu)
			}
		}
	}
	return nil
}
