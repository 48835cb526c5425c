package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

// Span names. A span is recorded by the benchmark around one call into
// the program (or one callback the program makes into the benchmark).
const (
	spanPhase      = "phase"
	spanWorldBuild = "scenario.world"
	spanRunSlice   = "simrun.run_slice"
	spanAddCP      = "admin.add_cp"
	spanRemoveCP   = "admin.remove_cp"
	spanCrash      = "admin.remove_device"
	spanCycle      = "cycle"
	spanAlive      = "listener.alive"
	spanLost       = "listener.lost"
	spanNextDelay  = "policy.next_delay"
	spanOnProbe    = "device.on_probe"
)

// spanRef names a recorded span: lane<<24 | index, or noSpan.
type spanRef int32

const noSpan spanRef = -1

type span struct {
	name       string
	start, end time.Duration // since the log's epoch
	parent     spanRef
	cp, cycle  uint32 // probe-cycle spans: CP id and the CP's cycle ordinal
}

// spanLane is one goroutine's bounded span buffer: only its owner
// appends, so recording takes no lock. Spans beyond the capacity are
// counted, not kept.
type spanLane struct {
	id      int
	spans   []span
	dropped uint64
}

// spanLog keeps every lane's spans in memory until the run ends.
type spanLog struct {
	epoch time.Time
	lanes []*spanLane
}

// laneCap bounds each lane; a saturated fleet completes far more cycles
// than are worth keeping.
const laneCap = 20000

func newSpanLog(lanes int) *spanLog {
	l := &spanLog{epoch: time.Now()}
	for i := 0; i < lanes; i++ {
		l.lanes = append(l.lanes, &spanLane{id: i, spans: make([]span, 0, laneCap)})
	}
	return l
}

func (l *spanLog) now() time.Duration { return time.Since(l.epoch) }

// room reports whether ln exists and can keep another span; a full lane
// counts the refusal as dropped, so callers skip the clock reads of spans
// that would not be kept.
func (ln *spanLane) room() bool {
	if ln == nil {
		return false
	}
	if len(ln.spans) == cap(ln.spans) {
		ln.dropped++
		return false
	}
	return true
}

// add keeps s if there is room (callers ask room first) and returns its
// reference.
func (ln *spanLane) add(s span) spanRef {
	if len(ln.spans) == cap(ln.spans) {
		return noSpan
	}
	ln.spans = append(ln.spans, s)
	return spanRef(ln.id<<24 | (len(ln.spans) - 1))
}

func (l *spanLog) counts() (kept, dropped uint64) {
	for _, ln := range l.lanes {
		kept += uint64(len(ln.spans))
		dropped += ln.dropped
	}
	return kept, dropped
}

// write dumps the spans as TSV: id, parent, name, start_ns, end_ns, cp,
// cycle. Ids are spanRefs; -1 is the root.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tname\tstart_ns\tend_ns\tcp\tcycle")
	for _, ln := range l.lanes {
		for i, s := range ln.spans {
			fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\t%d\n", ln.id<<24|i, s.parent, s.name,
				int64(s.start), int64(s.end), s.cp, s.cycle)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cpuBuckets are the cpu_share.* buckets, named after repo modules plus
// the Go runtime and the syscall layer.
var cpuBuckets = []string{"fleet", "wire", "core", "crypto", "metrics", "memnet", "des", "simnet", "simrun", "syscall", "runtime"}

// bucketOfFunc maps a fully qualified Go function name to a cpu_share
// bucket ("bench" for the benchmark itself, which has no metric), or ""
// for code outside every bucket.
func bucketOfFunc(fn string) string {
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case strings.HasPrefix(pkg, "presence/internal/"):
		mod := strings.TrimPrefix(pkg, "presence/internal/")
		if i := strings.Index(mod, "/"); i >= 0 {
			mod = mod[:i] // core/naive → core
		}
		for _, b := range cpuBuckets {
			if b == mod {
				return b
			}
		}
		return ""
	case pkg == "crypto" || strings.HasPrefix(pkg, "crypto/"):
		return "crypto"
	case pkg == "syscall" || pkg == "internal/poll" || pkg == "net" || pkg == "os" ||
		pkg == "internal/runtime/syscall":
		return "syscall"
	case pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/") || pkg == "runtime/internal/syscall":
		return "runtime"
	case pkg == "main":
		return "bench" // the benchmark's own callbacks and loops
	}
	return ""
}

// cpuShares attributes a CPU profile's samples to buckets. A sample goes
// to the innermost frame of its stack that is in a repo module, crypto or
// the syscall layer, so runtime and std-library helpers (allocation,
// channels, sync, time) count towards the module calling them; samples
// whose stack holds no such frame but runtime frames (scheduler, GC
// workers) go to runtime, and the rest to "other". Shares are of total
// sampled CPU time.
func cpuShares(profile []byte) (map[string]float64, error) {
	p, err := parseProfile(profile)
	if err != nil {
		return nil, err
	}
	shares := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		total += float64(s.value)
		bucket := "other"
	frames:
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				switch b := bucketOfFunc(fn); b {
				case "":
				case "runtime":
					bucket = b
				default:
					bucket = b
					break frames
				}
			}
		}
		shares[bucket] += float64(s.value)
	}
	for k := range shares {
		shares[k] = ratio(shares[k], total)
	}
	return shares, nil
}

// profile is the part of a pprof profile.proto the benchmark reads.
type profile struct {
	samples  []profSample
	locFuncs map[uint64][]string // location id → function names, innermost first
}

type profSample struct {
	locs  []uint64 // leaf first
	value int64    // last sample value: CPU nanoseconds
}

// parseProfile decodes a gzipped profile.proto with a minimal protobuf
// reader (the benchmark imports nothing outside the standard library).
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		strs      []string
		samples   []profSample
		locLines  = map[uint64][]uint64{} // location → function ids
		funcNames = map[uint64]int64{}    // function id → string index
	)
	err = protoFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s profSample
			var vals []int64
			err := protoFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return protoRepeated(w, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return protoRepeated(w, v, b, func(x uint64) { vals = append(vals, int64(x)) })
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.value = vals[len(vals)-1]
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := protoFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return protoFields(b, func(f, w int, v uint64, b []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locLines[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			err := protoFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &profile{samples: samples, locFuncs: map[uint64][]string{}}
	for loc, fns := range locLines {
		for _, fid := range fns {
			if idx := funcNames[fid]; idx >= 0 && int(idx) < len(strs) {
				p.locFuncs[loc] = append(p.locFuncs[loc], strs[idx])
			}
		}
	}
	return p, nil
}

var errProto = errors.New("malformed protobuf")

// protoFields calls fn for every field of one protobuf message: v holds
// varint and fixed values, b the bytes of length-delimited ones.
func protoFields(b []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := protoVarint(b)
		if n == 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = protoVarint(b)
			if n == 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			for i := 7; i >= 0; i-- {
				v = v<<8 | uint64(b[i])
			}
			b = b[8:]
		case 2:
			l, n := protoVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errProto
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			for i := 3; i >= 0; i-- {
				v = v<<8 | uint64(b[i])
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(field, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// protoRepeated handles a repeated varint field in either packed or
// unpacked encoding.
func protoRepeated(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := protoVarint(b)
		if n == 0 {
			return errProto
		}
		add(x)
		b = b[n:]
	}
	return nil
}

func protoVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}
