package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the simulator's layers host self time is split across:
// its internal/ packages, with coherence split into caches, ports and
// banks, plus the Go runtime. Samples no layer claims go to "other".
var layers = []string{
	"cpu", "isa",
	"coherence.cache", "coherence.node", "coherence.memctrl",
	"noc", "sim", "core", "trace", "mem", "runtime", "other",
}

// coherenceSublayer maps a coherence type or free function to its part
// of the package. Everything not named here (the I/D caches, the cache
// array, the write buffer and their helpers) is the cache part.
var coherenceSublayer = map[string]string{
	"MemCtrl": "memctrl", "NewMemCtrl": "memctrl", "dirEntry": "memctrl",
	"popcount": "memctrl", "serviceCost": "memctrl",
	"Node": "node", "NewNode": "node", "outMsg": "node", "msgPool": "node",
	"Msg": "node", "MsgKind": "node", "CPUSink": "node",
	"RetryPolicy": "node", "LivenessError": "node",
}

// layerOf maps a profiled function name to its layer. It returns ""
// for frames that belong to no layer (standard-library helpers, the
// benchmark's own replay generator): the sample then goes to the
// nearest caller that does.
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
		pkg, sym, _ := strings.Cut(rest, ".")
		pkg, _, _ = strings.Cut(pkg, "/")
		switch pkg {
		case "cpu", "isa", "noc", "sim", "core", "trace", "mem":
			return pkg
		case "coherence":
			if part, ok := coherenceSublayer[leadingName(sym)]; ok {
				return "coherence." + part
			}
			return "coherence.cache"
		}
		return "other"
	}
	for _, p := range []string{"runtime.", "runtime/", "internal/runtime/"} {
		if strings.HasPrefix(fn, p) {
			return "runtime"
		}
	}
	return ""
}

// leadingName returns the receiver type of a method symbol, or the
// function name: "(*MemCtrl).process" and "MemCtrl.process" give
// "MemCtrl", "popcount.func1" gives "popcount".
func leadingName(sym string) string {
	sym = strings.TrimPrefix(strings.TrimPrefix(sym, "("), "*")
	if i := strings.IndexAny(sym, ").["); i >= 0 {
		sym = sym[:i]
	}
	return sym
}

// selfTimes decodes a CPU profile as runtime/pprof writes it (gzipped
// protobuf) and sums each sample's CPU time into the layer of its leaf
// frame, skipping frames layerOf does not claim.
func selfTimes(data []byte) (map[string]float64, error) {
	p, err := decodeProfile(data)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, s := range p.samples {
		layer := "other"
	frames:
		for _, loc := range s.locations {
			for _, fn := range p.locations[loc] {
				if l := layerOf(p.functions[fn]); l != "" {
					layer = l
					break frames
				}
			}
		}
		out[layer] += float64(s.nanos) / 1e9
	}
	return out, nil
}

type profile struct {
	samples []sample
	// locations maps a location id to its function ids, innermost
	// inlined frame first.
	locations map[uint64][]uint64
	functions map[uint64]string
}

type sample struct {
	locations []uint64 // leaf first
	nanos     int64
}

// decodeProfile reads the parts of the pprof protobuf format
// (github.com/google/pprof/proto/profile.proto) that selfTimes needs.
func decodeProfile(data []byte) (*profile, error) {
	if len(data) > 1 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		raws        []rawSample
		sampleTypes [][2]uint64 // type, unit string indices
		strs        []string
		funcNames   = map[uint64]uint64{}
	)
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]string{}}
	err := fields(data, func(num uint64, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var t [2]uint64
			err := fields(b, func(n, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					t[n-1] = v
				}
				return nil
			})
			sampleTypes = append(sampleTypes, t)
			return err
		case 2: // sample
			var s rawSample
			err := fields(b, func(n, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendPacked(&s.locs, v, b)
				case 2:
					var u []uint64
					err := appendPacked(&u, v, b)
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
					return err
				}
				return nil
			})
			raws = append(raws, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(n, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(n, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := fields(b, func(n, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("decode profile: %w", err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	col := -1
	for i, t := range sampleTypes {
		if str(t[0]) == "cpu" && str(t[1]) == "nanoseconds" {
			col = i
		}
	}
	if col < 0 {
		return nil, errors.New("decode profile: no cpu/nanoseconds sample type")
	}
	for id, name := range funcNames {
		p.functions[id] = str(name)
	}
	for _, r := range raws {
		if col >= len(r.values) {
			return nil, errors.New("decode profile: sample without a cpu value")
		}
		p.samples = append(p.samples, sample{locations: r.locs, nanos: r.values[col]})
	}
	return p, nil
}

// fields walks the protobuf fields of msg, passing each field number
// with its varint value or its length-delimited bytes.
func fields(msg []byte, f func(num, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(msg); n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := f(key>>3, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, packed (b set) or not.
func appendPacked(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
