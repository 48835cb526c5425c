package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"os"
	"regexp"
	"runtime/pprof"
	"sort"
	"testing"
	"time"

	"presence/internal/core"
	"presence/internal/core/naive"
	"presence/internal/ident"
)

func TestHistQuantilesMatchSortedReference(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	sets := map[string]func() int64{
		"small-ints":  func() int64 { return r.Int64N(300) },
		"exponential": func() int64 { return int64(r.ExpFloat64() * 2e6) },
		"wide":        func() int64 { return int64(math.Exp(r.Float64() * 40)) },
	}
	for name, gen := range sets {
		for _, n := range []int{1, 7, 1000, 54321} {
			var h hist
			ref := make([]int64, n)
			for i := range ref {
				ref[i] = gen()
				h.add(ref[i])
			}
			sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
			for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
				got, _ := h.quantile(q)
				want := ref[rankOf(q, uint64(n))-1]
				// got is the lower bound of want's bucket: exact below
				// linearMax, within 1/128 below want above it.
				if got > want || float64(want-got) > float64(want)/128 {
					t.Errorf("%s n=%d q=%g: hist %d, sorted reference %d", name, n, q, got, want)
				}
			}
		}
	}
}

func TestBucketBoundsRoundTrip(t *testing.T) {
	for i := 0; i < histBuckets; i++ {
		low := bucketLow(i)
		if low < 0 {
			break // past the int64 range
		}
		if got := bucketOf(low); got != i {
			t.Fatalf("bucketOf(bucketLow(%d) = %d) = %d", i, low, got)
		}
		if i > 0 && bucketOf(low-1) != i-1 {
			t.Fatalf("value %d below bucket %d maps to %d", low-1, i, bucketOf(low-1))
		}
	}
}

func TestPercentileSuppressedWithFewerThanTenBeyond(t *testing.T) {
	cases := []struct {
		q    float64
		n    uint64
		want bool
	}{
		{0.99, 999, false}, // nearest rank 990: 9 beyond
		{0.99, 1000, true}, // rank 990: 10 beyond
		{0.50, 19, false},
		{0.50, 20, true},
		{0.50, 0, false},
	}
	for _, c := range cases {
		if got := quantileOK(c.q, c.n); got != c.want {
			t.Errorf("quantileOK(%g, %d) = %v, want %v", c.q, c.n, got, c.want)
		}
	}
	var h hist
	for i := 0; i < 999; i++ {
		h.add(int64(i) * 1000)
	}
	if v := h.quantileMs(0.99); v != 0 {
		t.Errorf("p99 of 999 samples reported as %g ms, want suppressed (0)", v)
	}
	h.add(5e6)
	if v := h.quantileMs(0.99); v == 0 {
		t.Error("p99 of 1000 samples suppressed")
	}
}

// scriptEnv is a core.Env on a hand-driven clock that delivers nothing:
// the test plays the network and the timer wheel itself.
type scriptEnv struct {
	now   time.Duration
	sent  []core.ProbeMsg
	alarm time.Duration
}

func (e *scriptEnv) Now() time.Duration { return e.now }
func (e *scriptEnv) Send(_ ident.NodeID, m core.Message) {
	if p, ok := m.(*core.ProbeMsg); ok {
		e.sent = append(e.sent, *p)
	}
	core.Recycle(m)
}
func (e *scriptEnv) SetAlarm(at time.Duration) { e.alarm = at }
func (e *scriptEnv) StopAlarm()                {}

// values lists a histogram's samples as their buckets' lower bounds.
func values(h *hist) []int64 {
	var out []int64
	for i, c := range h.counts {
		for ; c > 0; c-- {
			out = append(out, bucketLow(i))
		}
	}
	return out
}

func TestDueTimeLatencyOnScriptedCycles(t *testing.T) {
	r := &fleetRun{firstAll: make(chan struct{}), firstWant: 1}
	r.win.end.Store(math.MaxInt64)
	policy, err := naive.NewPolicy(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ln := &lane{}
	o := &cpObs{r: r, id: 9, device: 1, policy: policy, ln: ln, due: 0}
	env := &scriptEnv{}
	p, err := core.NewProber(core.ProberOptions{ID: 9, Device: 1, Env: env, Policy: o, Listener: o})
	if err != nil {
		t.Fatal(err)
	}
	ms := time.Millisecond
	reply := func(at time.Duration) {
		env.now = at
		last := env.sent[len(env.sent)-1]
		p.OnReply(core.ReplyMsg{From: 1, Cycle: last.Cycle, Attempt: last.Attempt, Payload: core.EmptyReply{}})
	}
	fire := func(at time.Duration) {
		env.now = at
		p.OnAlarm()
	}

	p.Start()        // cycle 1 due at Add (0), sent at once
	reply(2 * ms)    // latency 2 ms; next due 1.002 s
	fire(1005 * ms)  // the timer fires 3 ms late
	reply(1006 * ms) // latency 4 ms from due, not 1 ms from send
	fire(2006 * ms)  // on time; the probe is lost
	fire(2028 * ms)  // TOF expires: retransmission
	reply(2030 * ms) // latency 24 ms: retransmission counts

	select {
	case <-r.firstAll:
	default:
		t.Error("first completed cycle was not signalled")
	}
	want := []int64{int64(2 * ms), int64(4 * ms), int64(24 * ms)}
	if got := values(&ln.cycle); !close128(got, want) {
		t.Errorf("cycle latencies %v, want %v", got, want)
	}
	// Timer lateness is measured on first-attempt cycles only.
	if got := values(&ln.timerLate); !close128(got, []int64{0, int64(3 * ms)}) {
		t.Errorf("timer lateness %v, want [0 3ms]", got)
	}
	if ln.cycles != 3 || ln.retx != 1 {
		t.Errorf("cycles %d retransmits %d, want 3 and 1", ln.cycles, ln.retx)
	}
	if o.due != 3030*ms {
		t.Errorf("next due %v, want 3.03s", o.due)
	}
}

func close128(got, want []int64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] > want[i] || float64(want[i]-got[i]) > float64(want[i])/128 {
			return false
		}
	}
	return true
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitName = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.name) {
			t.Errorf("metric name %q does not match %s", d.name, metricName)
		}
		if !unitName.MatchString(d.unit) {
			t.Errorf("metric %s: unit %q does not match %s", d.name, d.unit, unitName)
		}
		if seen[d.name] {
			t.Errorf("metric %s defined twice", d.name)
		}
		seen[d.name] = true
	}
	for _, b := range cpuBuckets {
		if !seen["cpu_share."+b] {
			t.Errorf("cpu_share.%s is not a per-layer metric", b)
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json's metric lists and
// units identical to what the benchmark prints.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q the benchmark does not run", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
}

func TestBucketOfFunc(t *testing.T) {
	cases := map[string]string{
		"presence/internal/fleet.(*shard).loop":          "fleet",
		"presence/internal/core/naive.(*Device).OnProbe": "core",
		"presence/internal/wire.DecodeFrame":             "wire",
		"crypto/internal/fips140/sha256.blockAMD64":      "crypto",
		"internal/poll.(*FD).RawRead":                    "syscall",
		"syscall.Syscall6":                               "syscall",
		"runtime.mallocgc":                               "runtime",
		"internal/runtime/atomic.(*Uint32).Load":         "runtime",
		"sync.(*Mutex).Lock":                             "",
		"presence/internal/ident.NodeID.Valid":           "",
		"main.(*cpObs).DeviceAlive":                      "bench",
	}
	for fn, want := range cases {
		if got := bucketOfFunc(fn); got != want {
			t.Errorf("bucketOfFunc(%q) = %q, want %q", fn, got, want)
		}
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for t0 := time.Now(); time.Since(t0) < d; n++ {
	}
	return n
}

func TestCPUSharesParsesARealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) == 0 {
		t.Skip("the profile caught no samples")
	}
	found := false
	for _, fns := range p.locFuncs {
		for _, fn := range fns {
			if fn == "presence/perfbench.spin" || fn == "main.spin" {
				found = true
			}
		}
	}
	if !found {
		t.Error("the profile's functions do not include the spinning function")
	}
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %g: %v", sum, shares)
	}
}
