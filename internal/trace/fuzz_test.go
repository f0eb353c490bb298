package trace

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mem"
)

// fuzzStreams maps one fuzz input to per-CPU reference streams: a
// pattern (uniform over a small shared region, private+hot-spot, a
// write stream, private read-modify-write sweeps), 2–8 CPUs, a bounded
// op count and a store ratio. Every stream is drawn up front, so both
// runs of a pair replay exactly the same references.
func fuzzStreams(pattern, cpus uint8, ops uint16, storePct uint8, seed int64) (int, [][]Op) {
	n := 2 + int(cpus%7)
	count := 1 + int(ops%160)
	store := float64(storePct%101) / 100
	l := mem.DefaultLayout(n)
	streams := make([][]Op, n)
	for cpu := range streams {
		var g Generator
		switch pattern % 4 {
		case 0:
			g = NewUniform(UniformParams{Base: l.SharedBase, Size: 256, StoreFrac: store,
				Seed: seed + int64(cpu)})
		case 1:
			g = NewHotSpot(HotSpotParams{PrivateBase: l.PrivateSeg(cpu), PrivateSize: 1024,
				HotBase: l.SharedBase, HotSize: 32, HotFrac: 0.2, StoreFrac: store,
				Seed: seed + int64(cpu)})
		case 2:
			g = NewWriteStream(l.PrivateSeg(cpu), 512, 4<<(uint(seed)&3))
		default:
			g = NewPrivateRMW(l.PrivateSeg(cpu), 128)
		}
		s := make([]Op, count)
		for i := range s {
			s[i] = g.Next()
		}
		streams[cpu] = s
	}
	return n, streams
}

// replayGen hands out a pre-drawn stream.
type replayGen struct {
	ops  []Op
	next int
}

func (r *replayGen) Next() Op {
	op := r.ops[r.next]
	r.next++
	return op
}

// fuzzFaults is the fixed set of fault plans a fuzz input selects
// from: none, lost transfers, delayed transfers — each with a fixed
// seed, so a corpus entry replays bit for bit.
var fuzzFaults = []string{"", "drop=1e-3,seed=11", "delay=1e-3:8,seed=23"}

// fuzzOutcome is everything a trace run exposes: the run's error, the
// harness Result (per-CPU trace stats included), every data cache's
// and bank's counters, the injected-fault counters, and the final
// value of every referenced word.
type fuzzOutcome struct {
	Err    string
	Res    *Result
	DCache []coherence.DCacheStats
	Mem    []coherence.MemStats
	Faults fault.Stats
	Memory map[uint32]uint32
}

func runFuzzPoint(t *testing.T, cfg core.Config, streams [][]Op, think int, disableSleep bool) fuzzOutcome {
	t.Helper()
	cfg.DisableSleep = disableSleep
	h, err := NewHarness(cfg, func(cpu int) Generator { return &replayGen{ops: streams[cpu]} },
		uint64(len(streams[0])), think)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Run(5_000_000)
	out := fuzzOutcome{Res: res, Memory: make(map[uint32]uint32)}
	if err != nil {
		// A failed run (a liveness abort under faults) must fail the
		// same way on both schedules; the state it stopped in is
		// compared below like any other.
		out.Err = err.Error()
	}
	if h.Sys.FNet != nil {
		out.Faults = h.Sys.FNet.FaultStats()
	}
	for _, dc := range h.Sys.DCaches {
		out.DCache = append(out.DCache, *dc.Stats())
	}
	for _, b := range h.Sys.Banks {
		out.Mem = append(out.Mem, *b.Stats())
	}
	h.Sys.FlushCaches()
	for _, s := range streams {
		for _, op := range s {
			out.Memory[op.Addr] = h.Sys.Space.ReadWord(op.Addr)
		}
	}
	return out
}

// FuzzProtocols drives randomized trace workloads through every
// protocol on every interconnect, clean or under one of fuzzFaults,
// and asserts that the sleeping engine and the stepped one (-nosleep)
// agree field for field: error, harness Result, per-CPU trace stats,
// cache, bank and fault counters, and final memory. The committed
// corpus under testdata/fuzz runs with plain `go test`;
// `go test -fuzz FuzzProtocols ./internal/trace` explores.
func FuzzProtocols(f *testing.F) {
	f.Fuzz(func(t *testing.T, pattern, cpus uint8, ops uint16, think, storePct uint8, seed int64, faultSel uint8) {
		n, streams := fuzzStreams(pattern, cpus, ops, storePct, seed)
		var plan *fault.Plan
		if spec := fuzzFaults[int(faultSel)%len(fuzzFaults)]; spec != "" {
			var err error
			if plan, err = fault.ParsePlan(spec); err != nil {
				t.Fatal(err)
			}
		}
		protos := []coherence.Protocol{coherence.WTI, coherence.WTU, coherence.WBMESI, coherence.MOESI}
		nets := []core.NoCKind{core.GMNNet, core.MeshNet, core.BusNet}
		for _, proto := range protos {
			for _, net := range nets {
				cfg := core.DefaultConfig(proto, mem.Arch2, n)
				cfg.NoC = net
				cfg.Fault = plan
				name := fmt.Sprintf("%v/%v", proto, net)
				stepped := runFuzzPoint(t, cfg, streams, int(think%8), true)
				sleeping := runFuzzPoint(t, cfg, streams, int(think%8), false)
				if !reflect.DeepEqual(stepped, sleeping) {
					t.Fatalf("%s: stepped and sleeping runs differ:\nstepped:  %+v\nsleeping: %+v",
						name, stepped, sleeping)
				}
			}
		}
	})
}
