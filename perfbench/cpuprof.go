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

// cpuBuckets are the layers CPU time is charged to, in report order.
var cpuBuckets = []string{"model", "sched", "kvd", "kvfs", "core", "simclock", "server", "token", "gc", "other"}

// pkgBucket maps a repository package to its bucket. The lipscript
// interpreter and the lip library it runs programs with belong to the
// server layer; packages not listed fall in "other".
var pkgBucket = map[string]string{
	"model": "model", "sched": "sched", "kvd": "kvd", "kvfs": "kvfs", "core": "core",
	"simclock": "simclock", "server": "server", "lipscript": "server", "lip": "server", "token": "token",
}

// bucketCPU decodes a gzipped pprof CPU profile and returns each
// bucket's share of sampled CPU time. A sample belongs to "gc" when any
// of its frames is a garbage-collector entry point; otherwise to the
// package of its innermost repository frame, so standard-library time is
// charged to the layer that called it.
func bucketCPU(profile []byte) (map[string]float64, error) {
	p, err := decodeProfile(profile)
	if err != nil {
		return nil, err
	}
	byBucket := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		total += s.value
		byBucket[p.bucketOf(s.locs)] += s.value
	}
	out := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		out[b] = ratio(byBucket[b], total)
	}
	return out, nil
}

func (p *profile) bucketOf(locs []uint64) string {
	var names []string
	for _, id := range locs {
		for _, fn := range p.locFuncs[id] {
			names = append(names, p.strings[p.funcName[fn]])
		}
	}
	for _, n := range names {
		if isGC(n) {
			return "gc"
		}
	}
	for _, n := range names {
		if rest, ok := strings.CutPrefix(n, "repro/internal/"); ok {
			pkg := rest[:strings.IndexAny(rest+".", "./")]
			if b, ok := pkgBucket[pkg]; ok {
				return b
			}
			return "other"
		}
	}
	return "other"
}

func isGC(fn string) bool {
	return strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "runtime.bgsweep") ||
		strings.HasPrefix(fn, "runtime.bgscavenge") || fn == "runtime.GC"
}

// profile is the part of a pprof profile.proto the bucketing needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
}

type sample struct {
	locs  []uint64 // leaf first
	value int64    // the last sample value (CPU nanoseconds)
}

// decodeProfile parses the protobuf wire format of profile.proto by hand:
// the standard library writes profiles but has no public reader.
func decodeProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			var vals []uint64
			if err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return repeated(&s.locs, v, b)
				case 2:
					return repeated(&vals, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locFuncs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			if err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.funcName[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	for _, idx := range p.funcName {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errors.New("cpu profile: function name out of string table")
		}
	}
	return p, nil
}

// fields walks one protobuf message, calling fn with each field number
// and either its varint value or its length-delimited bytes.
func fields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			sub, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// repeated appends a repeated varint field in either encoding: one
// value, or a packed run.
func repeated(dst *[]uint64, v uint64, packed []byte) error {
	if packed == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		packed = packed[n:]
	}
	return nil
}
