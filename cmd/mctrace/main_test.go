package main

import (
	"math"
	"testing"
)

func TestCheckArgs(t *testing.T) {
	for _, tc := range []struct {
		name       string
		args       []string
		store, hot float64
		ok         bool
	}{
		{"defaults", nil, 0.3, 0.05, true},
		{"bounds inclusive", nil, 0, 1, true},
		{"positional", []string{"uniform"}, 0.3, 0.05, false},
		{"forgotten flag value", []string{"-cpus", "4"}, 0.3, 0.05, false},
		{"store above one", nil, 2, 0.05, false},
		{"store negative", nil, -0.1, 0.05, false},
		{"hot above one", nil, 0.3, 1.5, false},
		{"hot negative", nil, 0.3, -1, false},
		{"store NaN", nil, math.NaN(), 0.05, false},
	} {
		if err := checkArgs(tc.args, tc.store, tc.hot); (err == nil) != tc.ok {
			t.Errorf("%s: checkArgs(%q, %v, %v) = %v, want ok=%t", tc.name, tc.args, tc.store, tc.hot, err, tc.ok)
		}
	}
}
