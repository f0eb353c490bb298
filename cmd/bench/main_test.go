package main

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
)

func TestRejectPositional(t *testing.T) {
	if err := rejectPositional(nil); err != nil {
		t.Errorf("no leftover args: %v", err)
	}
	// `bench -o -quick` swallows "-quick" as the -o value and leaves any
	// later token positional; it must be refused, not silently ignored.
	for _, args := range [][]string{{"out.json"}, {"-quick"}, {"extra", "args"}} {
		if err := rejectPositional(args); err == nil {
			t.Errorf("rejectPositional(%q) = nil, want error", args)
		}
	}
}

// TestSchemaV3Dedup pins the v3 dedup and the v4 cut: the marshaled
// BenchJSON must contain neither the old `engine` block (the run it
// duplicated is named by engine_run instead) nor `shard_scaling`, and
// must carry the schema version benchdiff keys its tolerant reader off.
func TestSchemaV3Dedup(t *testing.T) {
	b := BenchJSON{
		SchemaVersion: BenchSchemaVersion,
		EngineRun:     "ocean/WTI/arch2/n16",
		Workloads: []WorkloadBench{
			{Run: "ocean/WTI/arch2/n16", Cycles: 1, WallMs: 1, MCyclesPerSec: 1},
		},
	}
	enc, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(enc, &doc); err != nil {
		t.Fatal(err)
	}
	if _, dup := doc["engine"]; dup {
		t.Error("schema still emits the duplicated engine block")
	}
	if _, ok := doc["shard_scaling"]; ok {
		t.Error("schema v4 still emits shard_scaling")
	}
	if doc["engine_run"] != "ocean/WTI/arch2/n16" {
		t.Errorf("engine_run = %v", doc["engine_run"])
	}
	if v, _ := doc["schema_version"].(float64); int(v) != 4 {
		t.Errorf("schema_version = %v, want 4", doc["schema_version"])
	}
}

// TestSleepHalvesEngineTicks pins the sleep/wake kernel's work saving
// on the engine-throughput pin (16-CPU ocean/WTI at full scale):
// executed component ticks per simulated cycle must be at most half of
// the stepped (-nosleep) count, with an identical Result. Tick counts
// are deterministic, so this gate holds exactly on every host.
func TestSleepHalvesEngineTicks(t *testing.T) {
	r := pinnedRuns()[0]
	run := func(disableSleep bool) (*core.Result, float64) {
		spec, err := exp.BuildSpec(r, exp.DefaultScale())
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig(r.Protocol, r.Arch, r.NumCPUs)
		cfg.DisableSleep = disableSleep
		sys, err := core.Build(cfg, spec.Image)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatalf("%s (sleep=%t): %v", r.Key(), !disableSleep, err)
		}
		return res, float64(sys.Engine.Ticks()) / float64(sys.Engine.Now())
	}
	stepped, steppedRate := run(true)
	sleeping, sleepingRate := run(false)
	t.Logf("%s: %.2f component ticks per cycle stepped, %.2f sleeping", r.Key(), steppedRate, sleepingRate)
	stepped.Config.DisableSleep = false
	if !reflect.DeepEqual(stepped, sleeping) {
		t.Errorf("results differ:\nstepped:  %+v\nsleeping: %+v", stepped, sleeping)
	}
	if sleepingRate > steppedRate/2 {
		t.Errorf("sleeping executes %.2f ticks per cycle, more than half of stepped %.2f",
			sleepingRate, steppedRate)
	}
}
