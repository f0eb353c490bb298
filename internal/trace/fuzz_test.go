package trace

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/coherence"
	"repro/internal/core"
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

// fuzzOutcome is everything a trace run exposes: the harness Result
// (per-CPU trace stats included), every data cache's and bank's
// counters, and the final value of every referenced word.
type fuzzOutcome struct {
	Res    *Result
	DCache []coherence.DCacheStats
	Mem    []coherence.MemStats
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
	if err != nil {
		t.Fatalf("sleep=%t: %v", !disableSleep, err)
	}
	out := fuzzOutcome{Res: res, Memory: make(map[uint32]uint32)}
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
// protocol on every interconnect and asserts that the sleeping engine
// and the stepped one (-nosleep) agree field for field: harness
// Result, per-CPU trace stats, cache and bank counters, and final
// memory. The committed corpus under testdata/fuzz runs with plain
// `go test`; `go test -fuzz FuzzProtocols ./internal/trace` explores.
func FuzzProtocols(f *testing.F) {
	f.Fuzz(func(t *testing.T, pattern, cpus uint8, ops uint16, think, storePct uint8, seed int64) {
		n, streams := fuzzStreams(pattern, cpus, ops, storePct, seed)
		protos := []coherence.Protocol{coherence.WTI, coherence.WTU, coherence.WBMESI, coherence.MOESI}
		nets := []core.NoCKind{core.GMNNet, core.MeshNet, core.BusNet}
		for _, proto := range protos {
			for _, net := range nets {
				cfg := core.DefaultConfig(proto, mem.Arch2, n)
				cfg.NoC = net
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
