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

// The cycle loop is reachable from outside only through gpu.RunContext, so
// host time inside it is split by layer from a CPU profile: each sample's
// leaf frame (its self time) is charged to the layer that owns the frame's
// package. The profile is the gzipped protobuf runtime/pprof writes; the
// decoder below reads just the fields that attribution needs.

// profileLayers maps package path prefixes to the layer names the
// per-layer metrics use; the longest matching prefix wins.
var profileLayers = []struct{ prefix, layer string }{
	{"gpusched/internal/gpu/parexec", "gpu.parexec"},
	{"gpusched/internal/gpu", "gpu"},
	{"gpusched/internal/sm", "sm"},
	{"gpusched/internal/mem", "mem"},
	{"gpusched/internal/workloads", "workloads"},
	{"gpusched/internal/core", "core"},
	{"runtime", "runtime"},
	{"internal/runtime", "runtime"},
}

// profileLayerNames are the layers cpuShares reports, "other" included.
var profileLayerNames = []string{"gpu.parexec", "gpu", "sm", "mem", "workloads", "core", "runtime", "other"}

// funcPackage returns the package path of a fully qualified function name
// such as "gpusched/internal/sm.(*SM).Tick".
func funcPackage(name string) string {
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

func layerOf(fn string) string {
	pkg := funcPackage(fn)
	best, layer := -1, "other"
	for _, l := range profileLayers {
		if (pkg == l.prefix || strings.HasPrefix(pkg, l.prefix+"/")) && len(l.prefix) > best {
			best, layer = len(l.prefix), l.layer
		}
	}
	return layer
}

// cpuShares decodes a CPU profile and returns each layer's share of the
// sampled CPU time, plus the number of samples.
func cpuShares(gz []byte) (map[string]float64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	funcName := map[uint64]string{}
	for _, f := range p.functions {
		if f.name >= 0 && f.name < int64(len(p.strings)) {
			funcName[f.id] = p.strings[f.name]
		}
	}
	leaf := map[uint64]string{}
	for _, l := range p.locations {
		if l.leafFunc != 0 {
			leaf[l.id] = funcName[l.leafFunc]
		}
	}
	byLayer := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		v := s.values[0] // sample count
		byLayer[layerOf(leaf[s.locs[0]])] += v
		total += v
	}
	shares := make(map[string]float64, len(profileLayerNames))
	for _, l := range profileLayerNames {
		shares[l] = ratio(float64(byLayer[l]), float64(total))
	}
	return shares, total, nil
}

type pbSample struct {
	locs   []uint64
	values []int64
}

type pbLocation struct {
	id       uint64
	leafFunc uint64 // function of the first (innermost) line
}

type pbFunction struct {
	id   uint64
	name int64
}

type pbProfile struct {
	samples   []pbSample
	locations []pbLocation
	functions []pbFunction
	strings   []string
}

// Field numbers of profile.proto (github.com/google/pprof).
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6
	sampleLocation  = 1
	sampleValue     = 2
	locationID      = 1
	locationLine    = 4
	lineFunction    = 1
	functionID      = 1
	functionName    = 2
)

func decodeProfile(b []byte) (*pbProfile, error) {
	p := &pbProfile{}
	err := eachField(b, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case profSample:
			var s pbSample
			err := eachField(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case sampleLocation:
					return appendVarints(&s.locs, wire, v, data)
				case sampleValue:
					var u []uint64
					if err := appendVarints(&u, wire, v, data); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var l pbLocation
			err := eachField(data, func(num, wire int, v uint64, data []byte) error {
				switch {
				case num == locationID:
					l.id = v
				case num == locationLine && l.leafFunc == 0:
					return eachField(data, func(num, wire int, v uint64, _ []byte) error {
						if num == lineFunction {
							l.leafFunc = v
						}
						return nil
					})
				}
				return nil
			})
			p.locations = append(p.locations, l)
			return err
		case profFunction:
			var f pbFunction
			err := eachField(data, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					f.id = v
				case functionName:
					f.name = int64(v)
				}
				return nil
			})
			p.functions = append(p.functions, f)
			return err
		case profStringTable:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

// appendVarints appends one unpacked varint field or a packed run of them.
func appendVarints(dst *[]uint64, wire int, v uint64, data []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and its varint value or length-delimited payload.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		tag, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field tag")
		}
		b = b[n:]
		num, wire := int(tag>>3), int(tag&7)
		var v uint64
		var data []byte
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
				return errors.New("bad length-delimited field")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
