package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// host records the facts a timing depends on. Runs are comparable only
// when all of them match.
type host struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
}

func hostFacts() host {
	return host{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo, or "unknown"
// where there is none.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// result is the last line every run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

const hostPrefix = "host "

// parseOutput reads a run's saved standard output: its host line and
// its closing result line.
func parseOutput(r io.Reader) (host, result, error) {
	var h host
	var res result
	var haveHost bool
	var last []byte
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Bytes()
		if rest, ok := bytes.CutPrefix(line, []byte(hostPrefix)); ok {
			if err := json.Unmarshal(rest, &h); err != nil {
				return h, res, fmt.Errorf("host line: %w", err)
			}
			haveHost = true
		}
		if len(bytes.TrimSpace(line)) > 0 {
			last = append(last[:0], line...)
		}
	}
	if err := sc.Err(); err != nil {
		return h, res, err
	}
	if !haveHost {
		return h, res, fmt.Errorf("no %q line", strings.TrimSpace(hostPrefix))
	}
	if err := json.Unmarshal(last, &res); err != nil {
		return h, res, fmt.Errorf("result line: %w", err)
	}
	return h, res, nil
}

// compare prints each metric of two saved runs side by side. Timings
// from different hosts say nothing about the code, so a pair whose
// host facts differ is refused.
func compare(w io.Writer, oldPath, newPath string) error {
	load := func(path string) (host, result, error) {
		f, err := os.Open(path)
		if err != nil {
			return host{}, result{}, err
		}
		defer f.Close()
		h, r, err := parseOutput(f)
		if err != nil {
			return h, r, fmt.Errorf("%s: %w", path, err)
		}
		return h, r, nil
	}
	oh, or, err := load(oldPath)
	if err != nil {
		return err
	}
	nh, nr, err := load(newPath)
	if err != nil {
		return err
	}
	if oh != nh {
		return fmt.Errorf("refusing a cross-host comparison:\n  old %+v\n  new %+v", oh, nh)
	}
	names := make([]string, 0, len(nr.Metrics))
	for name := range nr.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-36s %14s %14s %9s\n", "metric", "old", "new", "change")
	for _, name := range names {
		n := nr.Metrics[name]
		o, ok := or.Metrics[name]
		if !ok {
			fmt.Fprintf(w, "%-36s %14s %14.6g %9s %s\n", name, "-", n.Value, "", n.Unit)
			continue
		}
		change := "-"
		if o.Value != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(n.Value-o.Value)/o.Value)
		}
		fmt.Fprintf(w, "%-36s %14.6g %14.6g %9s %s\n", name, o.Value, n.Value, change, n.Unit)
	}
	fmt.Fprintf(w, "jobs: old %d attempted, %d failed; new %d attempted, %d failed\n",
		or.Attempted, or.Failed, nr.Attempted, nr.Failed)
	return nil
}
