package main

import (
	"testing"

	"repro/internal/core"
)

func TestRejectPositional(t *testing.T) {
	if err := rejectPositional(nil); err != nil {
		t.Errorf("no leftover args: %v", err)
	}
	// A forgotten flag value (`mcsim -fault -cpus 4`) leaves later
	// tokens positional; they must be refused, not silently ignored.
	for _, args := range [][]string{{"ocean"}, {"-cpus"}, {"4", "-v"}} {
		if err := rejectPositional(args); err == nil {
			t.Errorf("rejectPositional(%q) = nil, want error", args)
		}
	}
}

func TestParseNoC(t *testing.T) {
	for _, tc := range []struct {
		name string
		want core.NoCKind
		ok   bool
	}{
		{"gmn", core.GMNNet, true},
		{"mesh", core.MeshNet, true},
		{"bus", core.BusNet, true},
		{"bogus", 0, false},
		{"", 0, false},
		{"GMN", 0, false},
	} {
		got, err := parseNoC(tc.name)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Errorf("parseNoC(%q) = %v, %v; want %v, ok=%t", tc.name, got, err, tc.want, tc.ok)
		}
	}
}
