// Command perfbench is the repository benchmark: it runs one workload
// against the fleet runtime, checks the outputs, and prints one JSON
// result line.
//
//	bash perfbench/run.sh --workload fleet-udp-paced --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the per-layer metrics, including the simulator's, and the
// run also writes its span log, CPU profile and report under
// .bench_build/perfbench/. NOTES.md explains the workloads and what each
// metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the monitor sees, reported on every
// workload by the untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"probes_per_s", "1/s"},
	{"cpu_us_per_probe", "us"},
	{"max_rss_mb", "MB"},
}

// perLayer are the traced run's metrics. A workload reports 0 for a
// metric of a layer it does not run, and for a percentile with fewer
// than minTail samples beyond it.
var perLayer = []metricDef{
	{"sim_s_per_wall_s", "s/s"},
	{"cycle_p50_ms", "ms"},
	{"cycle_p99_ms", "ms"},
	{"cycle_samples", "count"},
	{"detect_p50_ms", "ms"},
	{"detect_p99_ms", "ms"},
	{"detect_samples", "count"},
	{"false_absent_ratio", "ratio"},
	{"missed_detect_ratio", "ratio"},
	{"admin_p99_ms", "ms"},
	{"admin_samples", "count"},
	{"admin_reject_ratio", "ratio"},
	{"des.events", "count"},
	{"des.ns_per_event", "ns"},
	{"simrun.cps_ever", "count"},
	{"simrun.slowdown", "ratio"},
	{"fleet.shard_ns_per_packet", "ns"},
	{"fleet.telemetry_ns_per_packet", "ns"},
	{"fleet.auth_ns_per_packet", "ns"},
	{"core.prober_cycle_ns", "ns"},
	{"wire.decode_ns", "ns"},
	{"wire.encode_ns", "ns"},
	{"wire.encode_auth_ns", "ns"},
	{"wire.verify_ns", "ns"},
	{"fleet.syscalls_per_packet", "ratio"},
	{"fleet.batch_fill_in", "count"},
	{"fleet.batch_fill_out", "count"},
	{"kernel.sys_share", "ratio"},
	{"kernel.rcvbuf_errors", "count"},
	{"core.due_burst", "ratio"},
	{"fleet.timer_late_p99_us", "us"},
	{"fleet.verdict_late_p99_us", "us"},
	{"fleet.cascade_p99_us", "us"},
	{"core.retransmit_ratio", "ratio"},
	{"fleet.timers_per_probe", "ratio"},
	{"fleet.wheel_depth", "count"},
	{"fleet.pending_probes", "count"},
	{"fleet.rtt_p50_us", "us"},
	{"fleet.rtt_p99_us", "us"},
	{"fleet.demux_drops_per_kprobe", "count"},
	{"fleet.handoffs_per_kprobe", "count"},
	{"fleet.probes_shed", "count"},
	{"fleet.auth_rejected", "count"},
	{"fleet.decode_errors", "count"},
	{"fleet.send_errors", "count"},
	{"memnet.overflowed", "count"},
	{"runtime.alloc_bytes_per_probe", "B"},
	{"runtime.gc_cpu_share", "ratio"},
	{"cpu_share.fleet", "ratio"},
	{"cpu_share.wire", "ratio"},
	{"cpu_share.core", "ratio"},
	{"cpu_share.crypto", "ratio"},
	{"cpu_share.metrics", "ratio"},
	{"cpu_share.memnet", "ratio"},
	{"cpu_share.des", "ratio"},
	{"cpu_share.simnet", "ratio"},
	{"cpu_share.simrun", "ratio"},
	{"cpu_share.syscall", "ratio"},
	{"cpu_share.runtime", "ratio"},
	{"trace.overhead", "ratio"},
	{"trace.spans", "count"},
	{"trace.spans_dropped", "count"},
}

var workloads = map[string]*fleetSpec{
	memSaturate.name: &memSaturate,
	udpPaced.name:    &udpPaced,
}

// output collects one run's metrics, checks and notes.
type output struct {
	e2e, layer        map[string]float64
	attempted, failed int64
	problems          []string
	notes             []string
	tables            map[string][]string
	dir               string   // traced runs only: where artefacts go
	spans             *spanLog // traced runs only
}

func (o *output) note(format string, args ...any) {
	s := fmt.Sprintf(format, args...)
	o.notes = append(o.notes, s)
	fmt.Println(s)
}

func (o *output) writeSpans() error {
	kept, dropped := o.spans.counts()
	o.layer["trace.spans"] = float64(kept)
	o.layer["trace.spans_dropped"] = float64(dropped)
	return o.spans.write(filepath.Join(o.dir, "spans.tsv"))
}

// profileHz is the traced pass's CPU sampling rate: the paced fleet keeps
// the CPU mostly idle, and pprof's default 100 Hz would leave its shares
// resting on a few hundred samples.
const profileHz = 1000

// startProfile starts the traced pass's CPU profile into the output
// directory; stop it with pprof.StopCPUProfile and close the file.
func (o *output) startProfile() (*os.File, error) {
	f, err := os.Create(filepath.Join(o.dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	// Setting the rate first makes StartCPUProfile keep it (it reports
	// on stderr that it could not set its own); shares are ratios, so
	// the profile's recorded period does not matter.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

func (o *output) profileShares() error {
	raw, err := os.ReadFile(filepath.Join(o.dir, "cpu.pprof"))
	if err != nil {
		return err
	}
	shares, err := cpuShares(raw)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, b := range cpuBuckets {
		o.layer["cpu_share."+b] = shares[b]
	}
	o.tables["cpu_share"] = shareTable(shares)
	return nil
}

func shareTable(shares map[string]float64) []string {
	var keys []string
	for k := range shares {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return shares[keys[i]] > shares[keys[j]] })
	var out []string
	for _, k := range keys {
		out = append(out, fmt.Sprintf("%-8s %5.1f%%", k, 100*shares[k]))
	}
	return out
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measurement time per run")
	traced := flag.Int("trace", 0, "1: per-layer metrics from a traced run")
	flag.Parse()
	spec, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fail("usage: --workload {fleet-mem-saturate|fleet-udp-paced} --seed N --seconds S --trace {0|1}")
	}
	if spec.crash && *seconds < 2 {
		fail("%s crashes a device after a whole second and needs --seconds of at least 2", spec.name)
	}
	runtime.GOMAXPROCS(2)

	out := &output{e2e: map[string]float64{}, layer: map[string]float64{}, tables: map[string][]string{}}
	if *traced == 1 {
		out.dir = filepath.Join(".bench_build", "perfbench", fmt.Sprintf("%s-seed%d", *workload, *seed))
		if err := os.MkdirAll(out.dir, 0o755); err != nil {
			fail("%v", err)
		}
	}
	if err := runFleet(spec, *seed, time.Duration(*seconds)*time.Second, out); err != nil {
		fail("%s: %v", *workload, err)
	}
	defs := endToEnd
	values := out.e2e
	if *traced == 1 {
		if err := runMicro(out); err != nil {
			fail("microbenchmarks: %v", err)
		}
		if err := runSimLayers(*seed, out, out.spans.lanes[laneSim], out.spans); err != nil {
			fail("simulator layers: %v", err)
		}
		defs, values = perLayer, out.layer
		if err := out.writeSpans(); err != nil {
			fail("spans: %v", err)
		}
		if err := writeReport(out, *workload, *seed); err != nil {
			fail("report: %v", err)
		}
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "CHECK FAILED:", p)
	}
	res := result{Correct: len(out.problems) == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: map[string]metricValue{}}
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail("%v", err)
	}
	fmt.Println(string(line))
}

// writeReport saves a traced run's metrics, tables and notes next to its
// span log and CPU profile.
func writeReport(out *output, workload string, seed uint64) error {
	rep := map[string]any{
		"workload": workload, "seed": seed,
		"end_to_end": out.e2e, "per_layer": out.layer,
		"tables": out.tables, "notes": out.notes, "problems": out.problems,
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(out.dir, "report.json"), b, 0o644)
}
