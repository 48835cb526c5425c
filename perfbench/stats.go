package main

import (
	"bufio"
	"fmt"
	"math"
	"math/bits"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: p99 needs at least 1000 samples.
const minTail = 10

// hist is a log-linear histogram of non-negative int64 values (ns). Values
// below linearMax land in exact buckets; above, each power of two splits
// into linearMax/2 sub-buckets, so a bucket's width is at most 1/128 of
// its lower bound. It is not safe for concurrent use: each recording
// goroutine owns one and they are merged afterwards.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
}

const (
	linearMax   = 256
	subBits     = 7 // linearMax/2 = 1<<subBits sub-buckets per octave
	histBuckets = linearMax + (64-subBits-1)*(1<<subBits)
)

func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < linearMax {
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - subBits - 1
	return linearMax + (shift-1)<<subBits + int(uint64(v)>>shift) - 1<<subBits
}

// bucketLow returns the smallest value that maps to bucket i.
func bucketLow(i int) int64 {
	if i < linearMax {
		return int64(i)
	}
	j := i - linearMax
	shift := j>>subBits + 1
	return int64(j&(1<<subBits-1)+1<<subBits) << shift
}

func (h *hist) add(v int64) {
	h.counts[bucketOf(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// rankOf is the 1-based nearest rank of quantile q among n samples.
func rankOf(q float64, n uint64) uint64 {
	r := uint64(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// quantileOK reports whether at least minTail samples lie beyond the
// nearest-rank q-quantile of n samples.
func quantileOK(q float64, n uint64) bool {
	return n > 0 && n-rankOf(q, n) >= minTail
}

// quantile returns the nearest-rank q-quantile (the lower bound of its
// bucket, so within 1/128 below the exact value) and whether it may be
// reported.
func (h *hist) quantile(q float64) (int64, bool) {
	if h.n == 0 {
		return 0, false
	}
	rank := rankOf(q, h.n)
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			return bucketLow(i), quantileOK(q, h.n)
		}
	}
	return bucketLow(histBuckets - 1), quantileOK(q, h.n)
}

// quantileMs reports a percentile in milliseconds, or 0 when too few
// samples lie beyond it to report one.
func (h *hist) quantileMs(q float64) float64 {
	v, ok := h.quantile(q)
	if !ok {
		return 0
	}
	return float64(v) / 1e6
}

// quantileUs is quantileMs in microseconds.
func (h *hist) quantileUs(q float64) float64 { return h.quantileMs(q) * 1e3 }

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// usage is a snapshot of the process's OS resource counters.
type usage struct {
	wall      time.Time
	user, sys time.Duration
	maxRSSKiB int64
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fail("getrusage: %v", err)
	}
	return usage{
		wall:      time.Now(),
		user:      time.Duration(ru.Utime.Nano()),
		sys:       time.Duration(ru.Stime.Nano()),
		maxRSSKiB: ru.Maxrss,
	}
}

func (u usage) cpu() time.Duration { return u.user + u.sys }

// udpCounters reads the Udp: line of /proc/net/snmp (this network
// namespace's kernel UDP counters).
func udpCounters() map[string]int64 {
	f, err := os.Open("/proc/net/snmp")
	if err != nil {
		return nil
	}
	defer f.Close()
	var header []string
	out := map[string]int64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || fields[0] != "Udp:" {
			continue
		}
		if header == nil {
			header = fields[1:]
			continue
		}
		for i, v := range fields[1:] {
			if i < len(header) {
				n, _ := strconv.ParseInt(v, 10, 64)
				out[header[i]] = n
			}
		}
		break
	}
	return out
}

// goRuntime samples the Go runtime counters behind the runtime.* layer
// metrics.
type goRuntime struct {
	allocBytes      uint64
	gcCPU, totalCPU float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readGoRuntime() goRuntime {
	s := make([]metrics.Sample, len(runtimeSamples))
	copy(s, runtimeSamples)
	metrics.Read(s)
	var g goRuntime
	if s[0].Value.Kind() == metrics.KindUint64 {
		g.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		g.totalCPU = s[2].Value.Float64()
	}
	return g
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}
