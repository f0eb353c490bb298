package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"testing"
)

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/coherence.(*MemCtrl).process":      "coherence.memctrl",
		"repro/internal/coherence.(*MemCtrl).sendInvals":   "coherence.memctrl",
		"repro/internal/coherence.popcount":                "coherence.memctrl",
		"repro/internal/coherence.(*Node).Tick":            "coherence.node",
		"repro/internal/coherence.(*msgPool).get":          "coherence.node",
		"repro/internal/coherence.(*CPUSink).HandleMsg":    "coherence.node",
		"repro/internal/coherence.(*WTICache).Load":        "coherence.cache",
		"repro/internal/coherence.(*cacheArray).lookup":    "coherence.cache",
		"repro/internal/coherence.(*writeBuffer).push":     "coherence.cache",
		"repro/internal/coherence.(*ICache).Fetch.func1":   "coherence.cache",
		"repro/internal/cpu.(*CPU).Tick":                   "cpu",
		"repro/internal/isa.Decode":                        "isa",
		"repro/internal/noc.(*GMN).Tick":                   "noc",
		"repro/internal/sim.(*Engine).Run":                 "sim",
		"repro/internal/sim.(*ring[go.shape.int]).push":    "sim",
		"repro/internal/core.Build.func2":                  "core",
		"repro/internal/trace.(*CPU).Tick":                 "trace",
		"repro/internal/mem.(*Space).ReadWord":             "mem",
		"repro/internal/obs/resource.(*Sampler).loop":      "other",
		"runtime.mallocgc":                                 "runtime",
		"runtime/internal/syscall.Syscall6":                "runtime",
		"internal/runtime/atomic.(*Uint32).CompareAndSwap": "runtime",
		"sort.Search":         "",
		"main.(*replay).Next": "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// pb is a minimal protobuf encoder for building synthetic profiles.
type pb []byte

func (b pb) varint(num, v uint64) pb {
	b = binary.AppendUvarint(b, num<<3)
	return binary.AppendUvarint(b, v)
}

func (b pb) bytes(num uint64, v []byte) pb {
	b = binary.AppendUvarint(b, num<<3|2)
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

func (b pb) packed(num uint64, vs ...uint64) pb {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	return b.bytes(num, p)
}

// syntheticProfile encodes a gzipped CPU profile with one sample per
// stack, each worth the given nanoseconds.
func syntheticProfile(t *testing.T, funcs []string, locs [][]uint64, stacks [][]uint64, nanos []uint64) []byte {
	strs := append([]string{"", "samples", "count", "cpu", "nanoseconds"}, funcs...)
	var p pb
	p = p.bytes(1, pb(nil).varint(1, 1).varint(2, 2))
	p = p.bytes(1, pb(nil).varint(1, 3).varint(2, 4))
	for i, stack := range stacks {
		p = p.bytes(2, pb(nil).packed(1, stack...).packed(2, 1, nanos[i]))
	}
	for i, fns := range locs {
		loc := pb(nil).varint(1, uint64(i+1))
		for _, fn := range fns {
			loc = loc.bytes(4, pb(nil).varint(1, fn).varint(2, 10))
		}
		p = p.bytes(4, loc)
	}
	for i := range funcs {
		p = p.bytes(5, pb(nil).varint(1, uint64(i+1)).varint(2, uint64(5+i)))
	}
	for _, s := range strs {
		p = p.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSelfTimesSyntheticProfile(t *testing.T) {
	data := syntheticProfile(t,
		[]string{
			"repro/internal/coherence.(*MemCtrl).process", // 1
			"sort.Search",                    // 2
			"repro/internal/noc.(*GMN).Tick", // 3
			"runtime.mallocgc",               // 4
			"main.main",                      // 5
		},
		// Location 1 is sort.Search inlined into MemCtrl.process.
		[][]uint64{{2, 1}, {3}, {4}, {5}},
		[][]uint64{{1, 2}, {2}, {3, 1}, {4}, {1}},
		[]uint64{10e6, 20e6, 30e6, 40e6, 5e6},
	)
	got, err := selfTimes(data)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"coherence.memctrl": 0.015, "noc": 0.02, "runtime": 0.03, "other": 0.04,
	}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for l, w := range want {
		if math.Abs(got[l]-w) > 1e-12 {
			t.Errorf("%s = %v, want %v", l, got[l], w)
		}
	}
}

func TestDecodeProfileRejectsMalformed(t *testing.T) {
	for name, data := range map[string][]byte{
		"truncated length":   {0x12, 0x05, 0x01},
		"no cpu sample type": pb(nil).bytes(6, []byte("")),
	} {
		if _, err := selfTimes(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}
