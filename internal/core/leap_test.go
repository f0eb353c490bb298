package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/codegen"
	"repro/internal/coherence"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/workload"
)

// buildCounterSys wires the lock-counter workload on cfg.
func buildCounterSys(t *testing.T, cfg Config) *System {
	t.Helper()
	mode := codegen.SMP
	if cfg.Arch == mem.Arch2 {
		mode = codegen.DS
	}
	spec, err := workload.BuildCounter(mem.DefaultLayout(cfg.NumCPUs), mode,
		workload.CounterParams{Threads: cfg.NumCPUs, Incs: 40})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	sys, err := Build(cfg, spec.Image)
	if err != nil {
		t.Fatalf("wire: %v", err)
	}
	return sys
}

// TestLeapEquivalence is the stepped-vs-sleeping matrix at system
// level: a run whose idle components sleep (and whose engine leaps
// when nothing is awake) is byte-identical — full Result, not just the
// cycle count — to the same run with every component ticked every
// cycle, across every protocol and interconnect, clean and under a
// fault campaign.
func TestLeapEquivalence(t *testing.T) {
	type point struct {
		name  string
		proto coherence.Protocol
		arch  mem.Arch
		noc   NoCKind
		fault string
	}
	protos := []struct {
		name  string
		proto coherence.Protocol
		arch  mem.Arch
	}{
		{"wti", coherence.WTI, mem.Arch1},
		{"wtu", coherence.WTU, mem.Arch2},
		{"wb", coherence.WBMESI, mem.Arch2},
		{"moesi", coherence.MOESI, mem.Arch2},
	}
	nets := []struct {
		name string
		kind NoCKind
	}{{"gmn", GMNNet}, {"mesh", MeshNet}, {"bus", BusNet}}
	var points []point
	for i, p := range protos {
		for _, n := range nets {
			points = append(points, point{name: p.name + "/" + n.name, proto: p.proto, arch: p.arch, noc: n.kind})
		}
		// One fault campaign per protocol, rotating the interconnect.
		n := nets[i%len(nets)]
		name := p.name + "/fault"
		if n.kind != GMNNet {
			name += "/" + n.name
		}
		points = append(points, point{name: name, proto: p.proto, arch: p.arch, noc: n.kind,
			fault: "drop=2e-3,delay=1e-3:6,seed=7"})
	}
	for _, p := range points {
		t.Run(p.name, func(t *testing.T) {
			run := func(disableSleep bool) (*Result, uint64) {
				cfg := DefaultConfig(p.proto, p.arch, 2)
				cfg.NoC = p.noc
				cfg.DisableSleep = disableSleep
				if p.fault != "" {
					plan, err := fault.ParsePlan(p.fault)
					if err != nil {
						t.Fatal(err)
					}
					cfg.Fault = plan
				}
				sys := buildCounterSys(t, cfg)
				res, err := sys.Run()
				if err != nil {
					t.Fatalf("run (sleep=%t): %v", !disableSleep, err)
				}
				return res, sys.Engine.Ticks()
			}
			stepped, steppedTicks := run(true)
			sleeping, sleepingTicks := run(false)
			// The configs differ only in the DisableSleep knob, which is
			// deliberately absent from results; blank it for the compare.
			stepped.Config.DisableSleep = false
			if !reflect.DeepEqual(stepped, sleeping) {
				t.Errorf("results differ:\nstepped:  %+v\nsleeping: %+v", stepped, sleeping)
			}
			if sleepingTicks >= steppedTicks {
				t.Errorf("nothing slept (%d ticks sleeping, %d stepped) — the equivalence was vacuous",
					sleepingTicks, steppedTicks)
			}
		})
	}
}

// TestTickCounterExposed pins the engine's executed-tick accounting
// (the EXPERIMENTS worked example reads it): a stepped run ticks every
// component every cycle, and a sleeping run of the same point ticks
// strictly fewer over the same cycles.
func TestTickCounterExposed(t *testing.T) {
	run := func(disableSleep bool) (*System, uint64) {
		cfg := DefaultConfig(coherence.WTI, mem.Arch1, 2)
		cfg.DisableSleep = disableSleep
		sys := buildCounterSys(t, cfg)
		if _, err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		return sys, sys.Engine.Ticks()
	}
	stepped, steppedTicks := run(true)
	// 2 CPUs × (CPU, D-cache, I-cache, node) + 1 bank node + the NoC.
	components := uint64(4*2 + len(stepped.BNodes) + 1)
	if steppedTicks != components*stepped.Engine.Now() {
		t.Fatalf("stepped run executed %d ticks over %d cycles; want %d per cycle",
			steppedTicks, stepped.Engine.Now(), components)
	}
	sleeping, sleepingTicks := run(false)
	if sleeping.Engine.Now() != stepped.Engine.Now() || sleepingTicks == 0 || sleepingTicks >= steppedTicks {
		t.Fatalf("sleeping run: %d ticks over %d cycles; stepped %d over %d",
			sleepingTicks, sleeping.Engine.Now(), steppedTicks, stepped.Engine.Now())
	}
}

// TestSleepObservedMatchesStepped extends the equivalence to the
// observability layer: the interval-sample CSV, the Perfetto trace and
// the latency report must be byte-identical with and without sleeping
// — every sleeper is caught up before each sampling hook.
func TestSleepObservedMatchesStepped(t *testing.T) {
	for _, proto := range []coherence.Protocol{coherence.WTI, coherence.WBMESI} {
		t.Run(proto.String(), func(t *testing.T) {
			run := func(disableSleep bool) (csv, trace, lat string) {
				spec, err := workload.BuildOcean(mem.DefaultLayout(4), codegen.DS,
					workload.OceanParams{Threads: 4, RowsPerThread: 2, Iters: 2})
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				cfg := DefaultConfig(proto, mem.Arch2, 4)
				cfg.DisableSleep = disableSleep
				sys, err := Build(cfg, spec.Image)
				if err != nil {
					t.Fatalf("wire: %v", err)
				}
				rec := obs.New(obs.Config{Trace: true, SampleInterval: 97})
				sys.AttachObserver(rec)
				res, err := sys.Run()
				if err != nil {
					t.Fatalf("run (sleep=%t): %v", !disableSleep, err)
				}
				var c, tr bytes.Buffer
				if err := rec.Sampler().WriteCSV(&c); err != nil {
					t.Fatal(err)
				}
				if err := rec.WriteTrace(&tr); err != nil {
					t.Fatal(err)
				}
				return c.String(), tr.String(), fmt.Sprint(res.Latency)
			}
			csv1, trace1, lat1 := run(true)
			csv2, trace2, lat2 := run(false)
			if csv1 != csv2 {
				t.Errorf("interval CSV diverged:\nstepped:\n%s\nsleeping:\n%s", csv1, csv2)
			}
			if trace1 != trace2 {
				t.Errorf("Perfetto trace diverged (%d vs %d bytes)", len(trace1), len(trace2))
			}
			if lat1 != lat2 {
				t.Errorf("latency report diverged:\nstepped:\n%s\nsleeping:\n%s", lat1, lat2)
			}
		})
	}
}

// steppedOrSleepingRun executes one ocean point on the stepped or the
// sleeping schedule and returns everything observable about it: the
// Result, the exported JSON bytes, and the one-line summary. The final
// memory image is verified against the workload's own checker before
// returning, so a divergence in committed state fails here even if the
// statistics happened to agree.
func steppedOrSleepingRun(t *testing.T, proto coherence.Protocol, cpus int, disableSleep bool, faultSpec string) (*Result, []byte, string) {
	t.Helper()
	spec, err := workload.BuildOcean(mem.DefaultLayout(cpus), codegen.DS,
		workload.OceanParams{Threads: cpus, RowsPerThread: 1, Iters: 1})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	cfg := DefaultConfig(proto, mem.Arch2, cpus)
	cfg.DisableSleep = disableSleep
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
		t.Fatalf("run (sleep=%t): %v", !disableSleep, err)
	}
	sys.FlushCaches()
	if spec.Check != nil {
		if err := spec.Check(sys.Space); err != nil {
			t.Fatalf("memory check (sleep=%t): %v", !disableSleep, err)
		}
	}
	res.Config.DisableSleep = false // a scheduling knob, absent from results
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatalf("json: %v", err)
	}
	return res, buf.Bytes(), res.Summary()
}

// TestShardedMatchesSerial is the ocean equivalence grid: every
// protocol, at 4 and 16 CPUs, clean and under a fault campaign, must
// produce field-identical results on the stepped schedule (every
// component ticked every cycle, as the retired sharded engine did) and
// on the sleeping one — same Result struct, same JSON bytes, same
// summary line. It complements TestLeapEquivalence's 2-CPU counter
// matrix with larger machines and a real workload.
func TestShardedMatchesSerial(t *testing.T) {
	protos := []coherence.Protocol{coherence.WTI, coherence.WTU, coherence.WBMESI, coherence.MOESI}
	faults := []string{"", "drop=1e-4,seed=42"}
	for _, proto := range protos {
		for _, cpus := range []int{4, 16} {
			for _, fs := range faults {
				name := fmt.Sprintf("%v/n%d/fault=%t", proto, cpus, fs != "")
				t.Run(name, func(t *testing.T) {
					res1, json1, sum1 := steppedOrSleepingRun(t, proto, cpus, true, fs)
					res2, json2, sum2 := steppedOrSleepingRun(t, proto, cpus, false, fs)
					if !reflect.DeepEqual(res1, res2) {
						t.Errorf("Result diverged:\nstepped:  %+v\nsleeping: %+v", res1, res2)
					}
					if !bytes.Equal(json1, json2) {
						t.Errorf("result JSON diverged:\nstepped:  %s\nsleeping: %s", json1, json2)
					}
					if sum1 != sum2 {
						t.Errorf("summary diverged:\nstepped:  %s\nsleeping: %s", sum1, sum2)
					}
				})
			}
		}
	}
}

// TestShardedConfigValidation pins that the scheduling knob stays out
// of the configuration digest: Describe is identical however a run is
// scheduled, stepped or sleeping.
func TestShardedConfigValidation(t *testing.T) {
	a := DefaultConfig(coherence.WTI, mem.Arch2, 4)
	b := DefaultConfig(coherence.WTI, mem.Arch2, 4)
	b.DisableSleep = true
	if a.Describe() != b.Describe() {
		t.Fatal("Describe depends on DisableSleep; the config digest must not")
	}
}
