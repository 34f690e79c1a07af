package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
)

// Layer attribution. Every CPU sample and every allocation sample is
// charged to the innermost gemsim/internal/<module> frame on its stack
// (leaf first), so runtime work done on a module's behalf — mallocgc,
// channel operations, map hashing, GC assists — lands on the module
// that asked for it. A stack with no module frame goes to runtime.gc
// when it belongs to a GC worker, sweeper or scavenger, and to
// runtime.sched otherwise (scheduler, idle Ps, the benchmark's own
// frames).

const (
	modulePrefix = "gemsim/internal/"
	layerGC      = "runtime.gc"
	layerSched   = "runtime.sched"
)

// modules lists the internal packages of gemsim in directory order;
// each gets a <module>.cpu_pct and <module>.alloc_pct metric.
var modules = []string{
	"attrib", "buffer", "cc", "control", "core", "cpusrv", "fault", "gem",
	"lock", "model", "netsim", "node", "recovery", "report", "rng",
	"routing", "sim", "stats", "storage", "sweep", "trace", "workload",
}

// gcRoots are the entry functions of the runtime's background GC
// goroutines; runtime._GC is the pseudo-frame pprof records for a GC
// sample taken without a goroutine stack.
var gcRoots = []string{
	"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime._GC",
}

// attribute returns the layer a stack (function names, leaf first) is
// charged to.
func attribute(stack []string) string {
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, modulePrefix); ok {
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				return rest[:i]
			}
			return rest
		}
	}
	for _, fn := range stack {
		for _, root := range gcRoots {
			if strings.HasPrefix(fn, root) {
				return layerGC
			}
		}
	}
	return layerSched
}

// shares turns per-layer weights into percentages of their total.
func shares(weights map[string]float64) map[string]float64 {
	var total float64
	for _, w := range weights {
		total += w
	}
	out := make(map[string]float64, len(weights))
	for layer, w := range weights {
		if total > 0 {
			out[layer] = 100 * w / total
		}
	}
	return out
}

// cpuByLayer decodes a CPU profile and returns the CPU nanoseconds
// charged to each layer.
func cpuByLayer(raw []byte) (map[string]float64, error) {
	prof, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("decode cpu profile: %w", err)
	}
	// A CPU profile carries [samples/count, cpu/nanoseconds]; the
	// nanosecond column is the last one.
	ns := make(map[string]float64)
	for _, s := range prof.samples {
		if len(s.values) == 0 {
			continue
		}
		ns[attribute(prof.stack(s))] += float64(s.values[len(s.values)-1])
	}
	return ns, nil
}

// allocSite is one bucket of the allocation profile: a stack and an
// object size, with its cumulative sampled counts.
type allocSite struct {
	stack   []uintptr
	objects int64
	bytes   int64
}

type allocKey struct {
	stack [32]uintptr
	size  int64
}

// memSnapshot reads the cumulative allocation profile. The runtime
// publishes allocations at the end of a GC cycle, so it forces two
// first.
func memSnapshot() map[allocKey]allocSite {
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	out := make(map[allocKey]allocSite, len(recs))
	for i := range recs {
		r := &recs[i]
		if r.AllocObjects > 0 {
			key := allocKey{r.Stack0, r.AllocBytes / r.AllocObjects}
			out[key] = allocSite{stack: r.Stack(), objects: r.AllocObjects, bytes: r.AllocBytes}
		}
	}
	return out
}

// allocsByLayer charges the allocations made between two snapshots to
// layers, as estimated object counts. The runtime samples one
// allocation per rate bytes on average; like pprof, each bucket's
// sample count is scaled by 1/(1-exp(-size/rate)).
func allocsByLayer(before, after map[allocKey]allocSite, rate int) map[string]float64 {
	objs := make(map[string]float64)
	for key, a := range after {
		n := a.objects - before[key].objects
		if n <= 0 {
			continue
		}
		scale := 1.0
		if rate > 1 {
			scale = 1 / (1 - math.Exp(-float64(key.size)/float64(rate)))
		}
		objs[attribute(frameNames(a.stack))] += float64(n) * scale
	}
	return objs
}

// frameNames symbolizes program counters, inlined frames expanded,
// leaf first.
func frameNames(pcs []uintptr) []string {
	var names []string
	frames := runtime.CallersFrames(pcs)
	for {
		f, more := frames.Next()
		names = append(names, f.Function)
		if !more {
			return names
		}
	}
}

// profile is the part of a pprof protocol buffer the attribution
// needs: samples with their location stacks, and the function names
// behind each location.
type profile struct {
	strs    []string
	funcs   map[uint64]int64    // function id -> name string index
	locs    map[uint64][]uint64 // location id -> function ids, innermost first
	samples []sample
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

// stack returns a sample's function names, leaf first.
func (p *profile) stack(s sample) []string {
	var names []string
	for _, loc := range s.locs {
		for _, fid := range p.locs[loc] {
			if i, ok := p.funcs[fid]; ok && i >= 0 && int(i) < len(p.strs) {
				names = append(names, p.strs[i])
			}
		}
	}
	return names
}

// decodeProfile parses a gzip-compressed profile.proto message
// (github.com/google/pprof/proto/profile.proto): fields 2 (sample),
// 4 (location), 5 (function) and 6 (string table); the rest is skipped.
func decodeProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &profile{funcs: make(map[uint64]int64), locs: make(map[uint64][]uint64)}
	err = eachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2:
			var s sample
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, w, v, b)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, w, v, b); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fids []uint64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line{function_id = 1, line = 2}
					return eachField(b, func(f, w int, v uint64, b []byte) error {
						if f == 1 {
							fids = append(fids, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fids
			return err
		case 5:
			var id uint64
			var name int64 = -1
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case 6:
			p.strs = append(p.strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

var errTruncated = errors.New("truncated protocol buffer")

// eachField walks one protocol buffer message, calling fn with each
// field's number, wire type and either its scalar value (wire types 0,
// 1, 5) or its bytes (wire type 2).
func eachField(b []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			v = binary.LittleEndian.Uint64(b)
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			v = uint64(binary.LittleEndian.Uint32(b))
			b = b[4:]
		default:
			return fmt.Errorf("unsupported protocol buffer wire type %d", wire)
		}
		if err := fn(field, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (wire type 2)
// or not (wire type 0).
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// layers lists every layer a share is reported for: the modules, then
// the two runtime buckets.
func layers() []string {
	return append(append([]string(nil), modules...), layerGC, layerSched)
}
