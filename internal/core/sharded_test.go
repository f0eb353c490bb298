package core

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/codegen"
	"repro/internal/coherence"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/workload"
)

// shardedRun executes one ocean point at the given shard count and
// returns everything observable about it: the Result, the exported
// JSON bytes, and the one-line summary.
// The final memory image is verified against the workload's own
// checker before returning, so a divergence in committed state fails
// here even if the statistics happened to agree.
func shardedRun(t *testing.T, proto coherence.Protocol, cpus, shards int, faultSpec string) (*Result, []byte, string) {
	t.Helper()
	spec, err := workload.BuildOcean(mem.DefaultLayout(cpus), codegen.DS,
		workload.OceanParams{Threads: cpus, RowsPerThread: 1, Iters: 1})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	cfg := DefaultConfig(proto, mem.Arch2, cpus)
	cfg.Shards = shards
	if faultSpec != "" {
		plan, err := fault.ParsePlan(faultSpec)
		if err != nil {
			t.Fatalf("fault: %v", err)
		}
		cfg.Fault = plan
	}
	sys, err := Build(cfg, spec.Image)
	if err != nil {
		t.Fatalf("wire: %v", err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatalf("run (shards=%d): %v", shards, err)
	}
	sys.FlushCaches()
	if spec.Check != nil {
		if err := spec.Check(sys.Space); err != nil {
			t.Fatalf("memory check (shards=%d): %v", shards, err)
		}
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatalf("json: %v", err)
	}
	return res, buf.Bytes(), res.Summary()
}

// TestShardedMatchesSerial is the equivalence grid for the sharded BSP
// engine: every protocol, at 4 and 16 CPUs, clean and under a fault
// campaign, must produce field-identical results at -shards 4 versus
// the serial schedule, whose idle components sleep — same Result
// struct, same JSON bytes, same summary line.
func TestShardedMatchesSerial(t *testing.T) {
	protos := []coherence.Protocol{coherence.WTI, coherence.WTU, coherence.WBMESI, coherence.MOESI}
	faults := []string{"", "drop=1e-4,seed=42"}
	for _, proto := range protos {
		for _, cpus := range []int{4, 16} {
			for _, fs := range faults {
				name := fmt.Sprintf("%v/n%d/fault=%t", proto, cpus, fs != "")
				t.Run(name, func(t *testing.T) {
					res1, json1, sum1 := shardedRun(t, proto, cpus, 1, fs)
					res4, json4, sum4 := shardedRun(t, proto, cpus, 4, fs)
					// Config.Shards is the one field allowed to differ: it
					// records how the run executed, not what it simulated
					// (and is excluded from the JSON export for the same
					// reason).
					res4.Config.Shards = res1.Config.Shards
					if !reflect.DeepEqual(res1, res4) {
						t.Errorf("Result diverged:\nserial:  %+v\nsharded: %+v", res1, res4)
					}
					if !bytes.Equal(json1, json4) {
						t.Errorf("result JSON diverged:\nserial:  %s\nsharded: %s", json1, json4)
					}
					if sum1 != sum4 {
						t.Errorf("summary diverged:\nserial:  %s\nsharded: %s", sum1, sum4)
					}
				})
			}
		}
	}
}

// TestShardedObservedMatchesSerial extends the equivalence to the
// observability layer: with a recorder attached, the interval-sample
// CSV and the latency report must come out identical under sharding
// (per-shard child recorders are merged back deterministically).
func TestShardedObservedMatchesSerial(t *testing.T) {
	run := func(shards int) (string, string) {
		spec, err := workload.BuildOcean(mem.DefaultLayout(4), codegen.DS,
			workload.OceanParams{Threads: 4, RowsPerThread: 2, Iters: 2})
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		cfg := DefaultConfig(coherence.WBMESI, mem.Arch2, 4)
		cfg.Shards = shards
		sys, err := Build(cfg, spec.Image)
		if err != nil {
			t.Fatalf("wire: %v", err)
		}
		rec := obs.New(obs.Config{SampleInterval: 100})
		sys.AttachObserver(rec)
		res, err := sys.Run()
		if err != nil {
			t.Fatalf("run (shards=%d): %v", shards, err)
		}
		var csv bytes.Buffer
		if err := rec.Sampler().WriteCSV(&csv); err != nil {
			t.Fatalf("csv: %v", err)
		}
		if res.Latency == nil {
			t.Fatalf("no latency report (shards=%d)", shards)
		}
		return csv.String(), res.Latency.String()
	}
	csv1, lat1 := run(1)
	csv4, lat4 := run(4)
	if csv1 != csv4 {
		t.Errorf("interval CSV diverged under sharding:\nserial:\n%s\nsharded:\n%s", csv1, csv4)
	}
	if lat1 != lat4 {
		t.Errorf("latency report diverged under sharding:\nserial:\n%s\nsharded:\n%s", lat1, lat4)
	}
}

// TestShardedConfigValidation pins the Config-level contract: negative
// shard counts are rejected, and Shards stays out of Describe so the
// configuration digest is identical however a run is parallelized.
func TestShardedConfigValidation(t *testing.T) {
	cfg := DefaultConfig(coherence.WTI, mem.Arch2, 4)
	cfg.Shards = -1
	if _, err := Build(cfg, nil); err == nil || !strings.Contains(err.Error(), "Shards") {
		t.Fatalf("negative Shards not rejected: err = %v", err)
	}
	a := DefaultConfig(coherence.WTI, mem.Arch2, 4)
	b := DefaultConfig(coherence.WTI, mem.Arch2, 4)
	b.Shards = 8
	if a.Describe() != b.Describe() {
		t.Fatal("Describe depends on Shards; the config digest must not")
	}
}

// TestShardedTraceRejected pins that protocol-event tracing (an
// inherently serial interleaved log) cannot be combined with sharded
// execution: TraceMessages must refuse rather than silently reorder.
func TestShardedTraceRejected(t *testing.T) {
	spec, err := buildQuickCounter(2)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	cfg := DefaultConfig(coherence.WTI, mem.Arch2, 2)
	cfg.Shards = 2
	sys, err := Build(cfg, spec.Image)
	if err != nil {
		t.Fatalf("wire: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("TraceMessages accepted a sharded system")
		}
	}()
	sys.TraceMessages(&bytes.Buffer{}, 0, false)
}
