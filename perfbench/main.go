// Command perfbench is the repository's benchmark: host throughput of
// the simulator on three workloads that stress different layers, with
// every job's simulated outputs verified against pinned digests.
//
//	bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//	bash perfbench/run.sh --workload all --seed N --seconds S
//	bash perfbench/run.sh -compare OLD.out NEW.out
//
// With --trace 0 it prints the end-to-end metrics, with --trace 1 the
// per-layer ones; the last line of standard output is always one JSON
// result. See README.md for the workloads and metrics.
package main

import (
	"bufio"
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the trace workload's seed whose digest is pinned;
// other seeds pass every check but that one.
const defaultSeed = 1

//go:embed digests.json
var digestsJSON []byte

// pinnedDigest returns the digest a job of w must produce with seed, or
// nil when none is pinned (a seeded workload on a non-default seed).
func pinnedDigest(w workloadDef, seed int64) (*digest, error) {
	var all map[string]digest
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	key := w.name
	if w.seeded {
		if seed != defaultSeed {
			return nil, nil
		}
		key = fmt.Sprintf("%s/seed%d", w.name, seed)
	}
	d, ok := all[key]
	if !ok {
		return nil, fmt.Errorf("digests.json pins no digest for %s", key)
	}
	return &d, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or \"all\" for each in turn")
	seed := fs.Int64("seed", defaultSeed, "seed of the trace workload's reference streams")
	seconds := fs.Float64("seconds", 10, "how long to measure, in seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: a profiled run reporting per-layer metrics")
	cmp := fs.Bool("compare", false, "compare two saved outputs: -compare OLD NEW")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: -compare takes two saved outputs")
			return 2
		}
		if err := compare(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		return 0
	}
	if fs.NArg() != 0 || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: usage: -workload NAME -seed N -seconds S -trace 0|1")
		return 2
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	if *name == "all" {
		return runAll(args, stdout, stderr)
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))
	res, spans := measure(w, *seed, budget, *traced == 1, stderr)
	if *traced == 1 {
		if err := writeSpans(w.name, *seed, spans); err != nil {
			fmt.Fprintln(stderr, "perfbench: spans:", err)
		}
	}
	hb, _ := json.Marshal(hostFacts())
	rb, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s%s\n%s\n", hostPrefix, hb, rb)
	if !res.Correct {
		return 1
	}
	return 0
}

// jobRecord is what one job measured.
type jobRecord struct {
	image, build, run, verify time.Duration
	counts                    counts
	allocBytes, gcCycles      uint64
	self                      map[string]float64 // profiled jobs only
	spans                     []span
}

// span is one timed step of a job, parented by the job's own span.
type span struct {
	Name   string  `json:"name"`
	Job    int     `json:"job"`
	Parent string  `json:"parent,omitempty"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

var processStart = time.Now()

func since(t time.Time) float64 { return t.Sub(processStart).Seconds() }

// runJob sets up, runs and verifies one simulation. A profiled job
// samples the run with the CPU profiler and splits it across layers.
func runJob(setup setupFunc, want *digest, profiled bool, id int) (jobRecord, error) {
	var rec jobRecord
	runtime.GC()
	start := time.Now()
	inst, image, build, err := setup()
	if err != nil {
		return rec, fmt.Errorf("setup: %w", err)
	}
	rec.image, rec.build = image, build
	var prof bytes.Buffer
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if profiled {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return rec, err
		}
	}
	t0 := time.Now()
	err = inst.run()
	rec.run = time.Since(t0)
	if profiled {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&after)
	if err != nil {
		return rec, fmt.Errorf("run: %w", err)
	}
	rec.allocBytes = after.TotalAlloc - before.TotalAlloc
	rec.gcCycles = uint64(after.NumGC - before.NumGC)
	t1 := time.Now()
	rec.counts, err = inst.verify()
	if err == nil && want != nil && rec.counts.digest != *want {
		err = fmt.Errorf("simulated digest %+v differs from the pinned %+v", rec.counts.digest, *want)
	}
	rec.verify = time.Since(t1)
	if err != nil {
		return rec, fmt.Errorf("verify: %w", err)
	}
	if profiled {
		if rec.self, err = selfTimes(prof.Bytes()); err != nil {
			return rec, err
		}
	}
	job := fmt.Sprintf("job%d", id)
	b := since(start) + image.Seconds()
	rec.spans = []span{
		{Name: job, Job: id, Start: since(start), End: since(t1) + rec.verify.Seconds()},
		{Name: "workload.image", Job: id, Parent: job, Start: since(start), End: b},
		{Name: "core.build", Job: id, Parent: job, Start: b, End: b + build.Seconds()},
		{Name: "sim.run", Job: id, Parent: job, Start: since(t0), End: since(t0) + rec.run.Seconds()},
		{Name: "verify", Job: id, Parent: job, Start: since(t1), End: since(t1) + rec.verify.Seconds()},
	}
	return rec, nil
}

// measure runs jobs of w for budget and reduces them to the run's
// result: the end-to-end metrics, or with traced the per-layer ones.
// A traced run spends the first half of its budget on plain jobs and
// the rest on profiled ones, so the profiler's overhead is measured
// against the same process.
func measure(w workloadDef, seed int64, budget time.Duration, traced bool, log io.Writer) (result, []span) {
	fail := func(err error) (result, []span) {
		fmt.Fprintf(log, "perfbench: %s: %v\n", w.name, err)
		return result{Attempted: 1, Failed: 1, Metrics: map[string]metric{}}, nil
	}
	want, err := pinnedDigest(w, seed)
	if err != nil {
		return fail(err)
	}
	setup, err := w.prepare(seed)
	if err != nil {
		return fail(err)
	}

	// Set-up time is short next to a job, so it is sampled on its own
	// before the jobs, several times and for at least a second.
	var setups []float64
	for t := time.Now(); len(setups) < 5 || (time.Since(t) < time.Second && len(setups) < 1000); {
		runtime.GC()
		_, image, build, err := setup()
		if err != nil {
			return fail(fmt.Errorf("setup: %w", err))
		}
		setups = append(setups, (image + build).Seconds())
	}

	var plain, profiled []jobRecord
	var spans []span
	attempted, failed := 0, 0
	var first *digest
	start := time.Now()
	phase := func(until time.Duration, profile bool) {
		var spent time.Duration
		for n := 0; failed == 0 && (n == 0 || time.Since(start)+spent/time.Duration(n) <= until); n++ {
			t := time.Now()
			attempted++
			rec, err := runJob(setup, want, profile, attempted)
			if err == nil && first != nil && rec.counts.digest != *first {
				err = fmt.Errorf("simulated digest %+v differs from job 1's %+v", rec.counts.digest, *first)
			}
			spent += time.Since(t)
			if err != nil {
				failed++
				fmt.Fprintf(log, "perfbench: %s job %d failed: %v\n", w.name, attempted, err)
				return
			}
			if first == nil {
				first = &rec.counts.digest
			}
			fmt.Fprintf(log, "%s job %d: %.3f Mcyc in %.3f s = %.4f Mcyc/s, set-up %.4f s, profiled=%v\n",
				w.name, attempted, float64(rec.counts.Cycles)/1e6, rec.run.Seconds(),
				mcycPerSec(rec), (rec.image + rec.build).Seconds(), profile)
			spans = append(spans, rec.spans...)
			if profile {
				profiled = append(profiled, rec)
			} else {
				plain = append(plain, rec)
				setups = append(setups, (rec.image + rec.build).Seconds())
			}
		}
	}
	if traced {
		phase(budget/2, false)
		phase(budget, true)
	} else {
		phase(budget, false)
	}

	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed}
	if failed > 0 {
		res.Metrics = map[string]metric{}
	} else if traced {
		res.Metrics = layerMetrics(plain, profiled)
	} else {
		res.Metrics = endToEndMetrics(plain, setups, peakRSSBytes())
	}
	return res, spans
}

func mcycPerSec(r jobRecord) float64 {
	return float64(r.counts.Cycles) / 1e6 / r.run.Seconds()
}

// endToEndMetrics are what a user of the simulator sees: throughput,
// set-up time and memory.
func endToEndMetrics(jobs []jobRecord, setups []float64, peakRSS uint64) map[string]metric {
	return map[string]metric{
		"sim_mcyc_per_s": {median(jobs, mcycPerSec), "Mcyc/s"},
		"setup_s":        {medianOf(setups), "s"},
		"peak_rss_mb":    {float64(peakRSS) / 1e6, "MB"},
	}
}

// layerMetrics splits a traced run across the simulator's layers: the
// job's step spans (plain jobs), host self time per layer (profiled
// jobs), the deterministic counters, and host cost per unit of work.
func layerMetrics(plain, profiled []jobRecord) map[string]metric {
	secs := func(f func(jobRecord) time.Duration) float64 {
		return median(plain, func(r jobRecord) float64 { return f(r).Seconds() })
	}
	runS := secs(func(r jobRecord) time.Duration { return r.run })
	m := map[string]metric{
		"workload.image_s": {secs(func(r jobRecord) time.Duration { return r.image }), "s"},
		"core.build_s":     {secs(func(r jobRecord) time.Duration { return r.build }), "s"},
		"sim.run_s":        {runS, "s"},
		"verify_s":         {secs(func(r jobRecord) time.Duration { return r.verify }), "s"},
		"trace_overhead_frac": {ratio(median(profiled, func(r jobRecord) float64 {
			return r.run.Seconds()
		}), runS) - 1, "frac"},
		"runtime.alloc_bytes": {median(plain, func(r jobRecord) float64 { return float64(r.allocBytes) }), "bytes"},
		"runtime.gc_cycles":   {median(plain, func(r jobRecord) float64 { return float64(r.gcCycles) }), "count"},
	}
	self := map[string]float64{}
	var profiledRun float64
	for _, r := range profiled {
		for l, s := range r.self {
			self[l] += s / float64(len(profiled))
		}
		profiledRun += r.run.Seconds() / float64(len(profiled))
	}
	for _, l := range layers {
		m[l+".self_s"] = metric{self[l], "s"}
		m[l+".self_frac"] = metric{ratio(self[l], profiledRun), "frac"}
	}

	c := plain[0].counts
	count := func(name string, v uint64) { m[name] = metric{float64(v), "count"} }
	count("sim.cycles", c.Cycles)
	count("cpu.instructions", c.Instructions)
	count("cpu.data_stall_cycles", c.DataStallCycles)
	count("cpu.inst_stall_cycles", c.InstStallCycles)
	count("coherence.loads", c.Loads)
	count("coherence.stores", c.Stores)
	count("coherence.ifetches", c.IFetches)
	count("coherence.wbuf_full_stalls", c.WBufFullStalls)
	count("coherence.memctrl.requests", c.MemRequests)
	count("coherence.memctrl.invals_sent", c.InvalsSent)
	count("coherence.memctrl.deferred", c.Deferred)
	count("noc.packets", c.NoCPackets)
	count("noc.flits", c.Flits)
	count("noc.inject_stall_cycles", c.InjectStall)
	m["cpu.retire_frac"] = metric{ratio(float64(c.Instructions), float64(c.Cycles)*float64(c.CPUs)), "frac"}
	m["coherence.load_miss_rate"] = metric{ratio(float64(c.LoadMisses), float64(c.Loads)), "frac"}

	ns := func(s float64, per uint64) float64 { return ratio(s*1e9, float64(per)) }
	m["cpu.ns_per_instr"] = metric{ns(self["cpu"]+self["isa"], c.Instructions), "ns"}
	m["coherence.ns_per_access"] = metric{ns(self["coherence.cache"]+self["coherence.node"]+
		self["coherence.memctrl"], c.Loads+c.Stores+c.IFetches), "ns"}
	m["noc.ns_per_flit"] = metric{ns(self["noc"], c.Flits), "ns"}
	m["sim.ns_per_cycle"] = metric{ns(self["sim"], c.Cycles), "ns"}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(jobs []jobRecord, f func(jobRecord) float64) float64 {
	vs := make([]float64, len(jobs))
	for i, j := range jobs {
		vs[i] = f(j)
	}
	return medianOf(vs)
}

func medianOf(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// peakRSSBytes is the process's resident high-water mark.
func peakRSSBytes() uint64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return uint64(ru.Maxrss) * 1024 // kilobytes on Linux
}

// writeSpans keeps a traced run's spans beside the build, one JSON file
// per workload and seed.
func writeSpans(name string, seed int64, spans []span) error {
	dir := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", name, seed)), data, 0o644)
}

// runAll runs each workload in a process of its own, so each one's
// peak RSS is its own, and folds their results into one line with
// metrics named <workload>.<metric>.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloads {
		cmd := exec.Command(self, append(args, "-workload", w.name)...)
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, stderr
		runErr := cmd.Run()
		fmt.Fprintf(stdout, "== %s\n%s", w.name, out.String())
		var last string
		for sc := bufio.NewScanner(&out); sc.Scan(); {
			if strings.TrimSpace(sc.Text()) != "" {
				last = sc.Text()
			}
		}
		var r result
		if err := json.Unmarshal([]byte(last), &r); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: no result (%v)\n", w.name, runErr)
			r = result{Attempted: 1, Failed: 1}
		}
		total.Correct = total.Correct && r.Correct
		total.Attempted += r.Attempted
		total.Failed += r.Failed
		for k, v := range r.Metrics {
			total.Metrics[w.name+"."+k] = v
		}
	}
	rb, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", rb)
	if !total.Correct {
		return 1
	}
	return 0
}
