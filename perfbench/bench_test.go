package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/trace"
)

// fakeInstance stands in for a simulation whose verification yields d.
type fakeInstance struct{ d digest }

func (f fakeInstance) run() error { return nil }

func (f fakeInstance) verify() (counts, error) {
	return counts{digest: f.d, CPUs: 1}, nil
}

func fakeSetup(cycles func() uint64) setupFunc {
	return func() (instance, time.Duration, time.Duration, error) {
		return fakeInstance{digest{Cycles: cycles()}}, time.Millisecond, time.Millisecond, nil
	}
}

func TestDigestMismatchFailsJob(t *testing.T) {
	setup := fakeSetup(func() uint64 { return 8 })
	if _, err := runJob(setup, &digest{Cycles: 8}, false, 1); err != nil {
		t.Fatalf("matching digest: %v", err)
	}
	_, err := runJob(setup, &digest{Cycles: 7}, false, 1)
	if err == nil || !strings.Contains(err.Error(), "pinned") {
		t.Fatalf("mismatched digest: err = %v, want a pinned-digest failure", err)
	}
}

// On a seed with no pinned digest, a job whose digest differs from the
// run's first job still fails, and the run reports it against the jobs
// attempted.
func TestUnpinnedSeedStillChecksRepeatability(t *testing.T) {
	var n uint64
	w := workloadDef{name: "fake", seeded: true, prepare: func(int64) (setupFunc, error) {
		return fakeSetup(func() uint64 { n++; return n / 10 }), nil
	}}
	res, _ := measure(w, defaultSeed+1, time.Minute, false, io.Discard)
	if res.Correct || res.Failed != 1 || res.Attempted < 2 {
		t.Fatalf("result %+v, want one failed job after the first", res)
	}
}

func TestDigestsPinned(t *testing.T) {
	for _, w := range workloads {
		d, err := pinnedDigest(w, defaultSeed)
		if err != nil || d == nil || d.Cycles == 0 {
			t.Errorf("%s: digest %v, err %v", w.name, d, err)
		}
		if d, err := pinnedDigest(w, defaultSeed+1); w.seeded && (d != nil || err != nil) {
			t.Errorf("%s: seed %d pins %v, err %v", w.name, defaultSeed+1, d, err)
		}
	}
}

func TestReplayMatchesHotSpot(t *testing.T) {
	l := mem.DefaultLayout(hotspotCPUs)
	const ops = 2000
	streams := hotspotStreams(7, ops, l)
	for _, cpu := range []int{0, hotspotCPUs - 1} {
		g := trace.NewHotSpot(hotspotParams(7, cpu, l))
		var r trace.Generator = &replay{ops: streams[cpu]}
		for i := 0; i < ops; i++ {
			if got, want := r.Next(), g.Next(); got != want {
				t.Fatalf("cpu %d op %d: replay %+v, generator %+v", cpu, i, got, want)
			}
		}
	}
}

func TestCheckFinalMemory(t *testing.T) {
	streams := [][]trace.Op{
		{{Store: true, Addr: 0x100, Data: 1}, {Store: true, Addr: 0x100, Data: 2}, {Addr: 0x104}},
		{{Store: true, Addr: 0x100, Data: 3}, {Store: true, Addr: 0x200, Data: 4}},
	}
	for _, c := range []struct {
		words map[uint32]uint32
		ok    bool
	}{
		{map[uint32]uint32{0x100: 2, 0x200: 4}, true},
		{map[uint32]uint32{0x100: 3, 0x200: 4}, true},
		{map[uint32]uint32{0x100: 1, 0x200: 4}, false}, // overwritten store
		{map[uint32]uint32{0x100: 2, 0x200: 4, 0x104: 9}, false},
		{map[uint32]uint32{0x100: 2}, false},
	} {
		space := mem.NewSpace()
		for a, v := range c.words {
			space.WriteWord(a, v)
		}
		if err := checkFinalMemory(space, streams); (err == nil) != c.ok {
			t.Errorf("memory %v: err = %v, want ok=%v", c.words, err, c.ok)
		}
	}
}

// The metrics a run prints are exactly the ones BENCHMARK.json
// declares, with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	job := jobRecord{run: time.Second, counts: counts{digest: digest{Cycles: 1}, CPUs: 1}}
	for _, c := range []struct {
		what  string
		decls []decl
		got   map[string]metric
	}{
		{"end_to_end", spec.EndToEnd, endToEndMetrics([]jobRecord{job}, []float64{1}, 1)},
		{"per_layer", spec.PerLayer, layerMetrics([]jobRecord{job}, []jobRecord{job})},
	} {
		var want, got []decl
		for _, d := range c.decls {
			want = append(want, d)
		}
		for name, m := range c.got {
			got = append(got, decl{name, m.Unit})
		}
		sort.Slice(want, func(i, j int) bool { return want[i].Name < want[j].Name })
		sort.Slice(got, func(i, j int) bool { return got[i].Name < got[j].Name })
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: printed %v\ndeclared %v", c.what, got, want)
		}
	}
}

func TestCompareRefusesCrossHost(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, h host, v float64) string {
		hb, _ := json.Marshal(h)
		rb, _ := json.Marshal(result{Correct: true, Attempted: 1,
			Metrics: map[string]metric{"sim_mcyc_per_s": {v, "Mcyc/s"}}})
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte("job log\n"+hostPrefix+string(hb)+"\n"+string(rb)+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	h := hostFacts()
	other := h
	other.NumCPU++
	a, b, c := write("a", h, 1), write("b", h, 1.1), write("c", other, 1.1)
	var out strings.Builder
	if err := compare(&out, a, b); err != nil || !strings.Contains(out.String(), "+10.0%") {
		t.Fatalf("same host: err %v, output\n%s", err, out.String())
	}
	if err := compare(io.Discard, a, c); err == nil || !strings.Contains(err.Error(), "cross-host") {
		t.Fatalf("cross host: err = %v, want a refusal", err)
	}
}
