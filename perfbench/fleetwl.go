package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"presence/internal/core"
	"presence/internal/core/naive"
	"presence/internal/fleet"
	"presence/internal/ident"
	"presence/internal/memnet"
)

// fleetSpec is one fleet workload's shape. Both fleet workloads run two
// fleets in this process: the CP fleet hosting the control points and a
// device fleet hosting the naive devices they probe, two shards each.
type fleetSpec struct {
	name   string
	cps    int
	period time.Duration // naive inter-cycle delay δ
	udp    bool          // kernel UDP loopback; otherwise one memnet network
	secure bool          // wire v2 authentication and Harden on both fleets
	// adminEvery is the spacing of admin add/remove calls during the
	// window (0: none); crash removes one device halfway through it,
	// rounded down to whole seconds.
	adminEvery time.Duration
	crash      bool
	boots      int // set-ups per run; setup_s is their median
	warmup     time.Duration
}

const (
	shards    = 2
	wheelTick = time.Millisecond // fleet default TimerTick
	poolSize  = 50               // rolling admin pool, CPs alive at once
)

var (
	// memSaturate keeps every CP's cycle in flight: δ is below one wheel
	// tick, so the loop is closed and the offered load is whatever the
	// CPU sustains.
	memSaturate = fleetSpec{
		name: "fleet-mem-saturate", cps: 2048, period: 100 * time.Microsecond,
		boots: 3, warmup: time.Second,
	}
	// udpPaced paces 10k CPs at δ = 1 s over kernel loopback with the
	// production defences on, admin churn and one silent device crash.
	udpPaced = fleetSpec{
		name: "fleet-udp-paced", cps: 10000, period: naive.DefaultPeriod,
		udp: true, secure: true, adminEvery: 5 * time.Millisecond, crash: true,
		boots: 5, warmup: 2 * time.Second,
	}
)

var authMaster = []byte("perfbench-master-secret")

// window is the measurement window on the CP fleet's clock; callbacks
// record only events inside it.
type window struct{ start, end atomic.Int64 }

func (w *window) contains(t time.Duration) bool {
	return int64(t) >= w.start.Load() && int64(t) < w.end.Load()
}

type verdict struct {
	cp, device ident.NodeID
	at, due    time.Duration // verdict time; when the failed cycle was due
}

// lane holds what the callbacks of one CP-fleet shard record. Every CP
// is placed on its hash-home shard (nothing drains), so one lane is only
// ever written by one shard's event loop and needs no lock; it is read
// after the fleet is closed.
type lane struct {
	cycle, timerLate hist
	cycles, retx     uint64
	dueTicks         []uint32 // cycles due per wheel tick of the window
	lost             []verdict
	byes             int
	spans            *spanLane
}

// cpObs is one control point's Listener and DelayPolicy: it wraps the
// naive policy and measures each cycle from its due time — the previous
// reply plus δ, or the Add call for the first cycle.
type cpObs struct {
	r      *fleetRun
	id     ident.NodeID
	device ident.NodeID
	policy *naive.Policy
	ln     *lane
	due    time.Duration
	cycles uint32
}

func (o *cpObs) DeviceAlive(_ ident.NodeID, res core.CycleResult) {
	traced := o.r.tracing.Load() && o.ln.spans.room()
	var t0 time.Duration
	if traced {
		t0 = o.r.spans.now()
	}
	o.cycles++
	if o.cycles == 1 {
		o.r.firstCycle()
	}
	if o.r.win.contains(res.RepliedAt) {
		o.ln.cycle.add(int64(res.RepliedAt - o.due))
		if res.Attempts == 1 {
			o.ln.timerLate.add(int64(res.SentAt - o.due))
		}
		o.ln.cycles++
		o.ln.retx += uint64(res.Attempts - 1)
	}
	if traced {
		off := o.r.spanOffset
		c := o.ln.spans.add(span{name: spanCycle, start: o.due + off, end: res.RepliedAt + off,
			parent: phaseSpan, cp: uint32(o.id), cycle: o.cycles})
		o.ln.spans.add(span{name: spanAlive, start: t0, end: o.r.spans.now(), parent: c,
			cp: uint32(o.id), cycle: o.cycles})
	}
}

func (o *cpObs) NextDelay(res core.CycleResult) time.Duration {
	traced := o.r.tracing.Load() && o.ln.spans.room()
	var t0 time.Duration
	if traced {
		t0 = o.r.spans.now()
	}
	d := o.policy.NextDelay(res)
	o.due = res.RepliedAt + d
	if o.r.win.contains(o.due) {
		if i := int((o.due - time.Duration(o.r.win.start.Load())) / wheelTick); i < len(o.ln.dueTicks) {
			o.ln.dueTicks[i]++
		}
	}
	if traced {
		o.ln.spans.add(span{name: spanNextDelay, start: t0, end: o.r.spans.now(), parent: phaseSpan,
			cp: uint32(o.id), cycle: o.cycles})
	}
	return d
}

func (o *cpObs) DeviceLost(dev ident.NodeID, at time.Duration) {
	o.ln.lost = append(o.ln.lost, verdict{cp: o.id, device: dev, at: at, due: o.due})
	if o.cycles == 0 {
		o.r.firstCycle() // set-up waits for every first cycle to end, however it ends
	}
	if o.r.tracing.Load() && o.ln.spans.room() {
		now := o.r.spans.now()
		o.ln.spans.add(span{name: spanLost, start: now, end: now, parent: phaseSpan,
			cp: uint32(o.id), cycle: o.cycles + 1})
	}
}

func (o *cpObs) DeviceBye(ident.NodeID, time.Duration) {
	o.ln.byes++
	if o.cycles == 0 {
		o.r.firstCycle()
	}
}

// tracedDevice wraps a device engine through the fleet.DeviceBuilder seam
// to span its OnProbe calls. The wrapped engine runs on its device
// shard's loop only.
type tracedDevice struct {
	core.Device
	r     *fleetRun
	spans *spanLane
	first map[ident.NodeID]uint32 // first cycle number seen per CP
}

func (d *tracedDevice) OnProbe(from ident.NodeID, m core.ProbeMsg) {
	// Every CP's first probe is seen at set-up, before spans are kept, so
	// that the ordinal counts from the CP's first cycle.
	first, ok := d.first[from]
	if !ok {
		first = m.Cycle
		d.first[from] = first
	}
	if !d.r.tracing.Load() || !d.spans.room() {
		d.Device.OnProbe(from, m)
		return
	}
	t0 := d.r.spans.now()
	d.Device.OnProbe(from, m)
	d.spans.add(span{name: spanOnProbe, start: t0, end: d.r.spans.now(), parent: phaseSpan,
		cp: uint32(from), cycle: m.Cycle - first + 1})
}

// fleetRun is one booted instance of a fleet workload.
type fleetRun struct {
	spec  *fleetSpec
	rng   *rand.Rand
	net   *memnet.Network
	devs  *fleet.Fleet
	cpf   *fleet.Fleet
	dev   [2]*fleet.Device
	crash int // index of the device removed mid-window
	lanes [shards]*lane
	obs   map[ident.NodeID]*cpObs
	win   window

	firstDone  atomic.Int64
	firstAll   chan struct{}
	firstOnce  sync.Once
	firstWant  int64
	spans      *spanLog // nil when untraced
	spanOffset time.Duration
	tracing    atomic.Bool // spans are recorded inside the window only
}

// phaseSpan is the main lane's first span: the measurement window, the
// parent of every other span of a traced fleet run.
const phaseSpan = spanRef(laneMain << 24)

func (r *fleetRun) firstCycle() {
	if r.firstDone.Add(1) == r.firstWant {
		r.firstOnce.Do(func() { close(r.firstAll) })
	}
}

// The device lanes, the main goroutine's lane and the simulator's follow
// the CP shard lanes in a span log.
const (
	laneDev0 = shards
	laneMain = shards + 2
	laneSim  = laneMain + 1
)

func (r *fleetRun) close() {
	if r.cpf != nil {
		r.cpf.Close()
	}
	if r.devs != nil {
		r.devs.Close()
	}
	if r.net != nil {
		r.net.Close()
	}
}

// boot builds both fleets, adds the devices and every CP, and returns
// once each CP has completed its first cycle, with the time that took.
func boot(spec *fleetSpec, seed uint64, spans *spanLog) (*fleetRun, time.Duration, error) {
	t0 := time.Now()
	r := &fleetRun{
		spec:      spec,
		rng:       rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)),
		obs:       make(map[ident.NodeID]*cpObs, spec.cps),
		firstAll:  make(chan struct{}),
		firstWant: int64(spec.cps),
		spans:     spans,
	}
	if err := r.start(seed); err != nil {
		r.close()
		return nil, 0, err
	}
	return r, time.Since(t0), nil
}

func (r *fleetRun) start(seed uint64) error {
	spec, spans := r.spec, r.spans
	r.win.start.Store(math.MaxInt64)
	r.win.end.Store(math.MaxInt64)
	r.crash = r.rng.IntN(2)
	for i := range r.lanes {
		r.lanes[i] = &lane{}
		if spans != nil {
			r.lanes[i].spans = spans.lanes[i]
		}
	}
	var transport fleet.Transport
	if !spec.udp {
		r.net = memnet.New(memnet.Faults{Seed: seed})
		transport = fleet.TransportFunc(func(int) (fleet.PacketConn, error) { return r.net.Listen() })
	}
	cfg := fleet.Config{Shards: shards, Transport: transport}
	if spec.secure {
		cfg.Auth = fleet.AuthConfig{Key: authMaster, Require: true}
		cfg.Harden = true
		// Every CP of a shard shares its socket's source address, so the
		// honest per-source rate is a whole shard's CPs (and the join
		// storm sends all of them at once).
		cfg.PerSourceProbeHz = float64(spec.cps)
		cfg.PerSourceBurst = spec.cps
	}
	var err error
	if r.devs, err = fleet.New(cfg); err != nil {
		return err
	}
	if r.cpf, err = fleet.New(cfg); err != nil {
		return err
	}
	if err := r.devs.Start(); err != nil {
		return err
	}
	if err := r.cpf.Start(); err != nil {
		return err
	}
	if spans != nil {
		r.spanOffset = spans.now() - r.cpf.Uptime()
		spans.lanes[laneMain].add(span{name: spanPhase, parent: noSpan})
	}
	for i := range r.dev {
		id := ident.NodeID(i + 1)
		build := func(env core.Env) (core.Device, error) { return naive.NewDevice(id, env) }
		if spans != nil {
			td := &tracedDevice{r: r, spans: spans.lanes[laneDev0+i], first: map[ident.NodeID]uint32{}}
			build = func(env core.Env) (core.Device, error) {
				d, err := naive.NewDevice(id, env)
				td.Device = d
				return td, err
			}
		}
		if r.dev[i], err = r.devs.AddDevice(id, build); err != nil {
			return err
		}
	}
	for len(r.obs) < spec.cps {
		id := ident.NodeID(1000 + r.rng.Uint32N(1<<31-1000))
		if r.obs[id] != nil {
			continue
		}
		if err := r.addCP(id, r.rng.IntN(2)); err != nil {
			return err
		}
	}
	select {
	case <-r.firstAll:
		return nil
	case <-time.After(60 * time.Second):
		return fmt.Errorf("%s: only %d of %d CPs completed a first cycle within 60s",
			spec.name, r.firstDone.Load(), spec.cps)
	}
}

func (r *fleetRun) addCP(id ident.NodeID, dev int) error {
	policy, err := naive.NewPolicy(r.spec.period)
	if err != nil {
		return err
	}
	o := &cpObs{r: r, id: id, device: r.dev[dev].ID(), policy: policy,
		ln: r.lanes[r.cpf.HomeShard(id)], due: r.cpf.Uptime()}
	r.obs[id] = o
	_, err = r.cpf.AddControlPoint(fleet.CPConfig{
		ID: id, Device: o.device, DeviceAddrPort: r.dev[dev].Addr(),
		Policy: o, Listener: o,
	})
	return err
}

// fleetResult is what one measured window yields.
type fleetResult struct {
	e2e, layer map[string]float64
	attempted  int64
	failed     int64
	problems   []string
}

// measure runs the window on a booted fleet, closes it, and evaluates.
func (r *fleetRun) measure(seconds time.Duration) (*fleetResult, error) {
	spec := r.spec
	var mainLane *spanLane
	if r.spans != nil {
		mainLane = r.spans.lanes[laneMain]
	}
	time.Sleep(spec.warmup)

	for _, ln := range r.lanes {
		ln.dueTicks = make([]uint32, int(seconds/wheelTick)+1)
	}
	start := r.cpf.Uptime()
	r.win.end.Store(int64(start + seconds))
	r.win.start.Store(int64(start))
	r.tracing.Store(mainLane != nil)
	w0 := r.read()

	var (
		adminLat          hist
		adminOps, rejects int64
		pool              []ident.NodeID
		nextPoolID        = ident.NodeID(1 << 31)
		crashed           bool
		crashStart        time.Duration // RemoveDevice called
		crashAt           time.Duration // RemoveDevice returned: the device is gone
		wheelDepth        []float64
		pending           []float64
		secRate, secCPU   []float64 // per-second probes/s and CPU µs per probe
		lastSnap          = w0.cp
		lastUsage         = w0.u
		survivor          = 1 - r.crash
		sampleEvery       = time.Second
		nextSample        = start + sampleEvery
		tick              = 50 * time.Millisecond
	)
	if spec.adminEvery > 0 {
		tick = spec.adminEvery
	}
	// The crash comes a whole number of seconds into the window: the CPs'
	// cycles stay bunched at their join phase, so only whole seconds of
	// life give every crashed-device CP the same number of cycles the
	// offered-rate check expects.
	crashAfter := (seconds / 2).Truncate(time.Second)
	liveSince := map[ident.NodeID]time.Duration{}
	cpSeconds := 0.0 // CP-seconds monitoring a live device, for the offered rate
	// admin times one admin call; a refused call is counted, not fatal.
	admin := func(name string, cp ident.NodeID, call func() error) (ok bool, err error) {
		t0 := time.Now()
		var s0 time.Duration
		if mainLane != nil {
			s0 = r.spans.now()
		}
		err = call()
		adminLat.add(int64(time.Since(t0)))
		adminOps++
		if mainLane != nil {
			mainLane.add(span{name: name, start: s0, end: r.spans.now(), parent: phaseSpan, cp: uint32(cp)})
		}
		if errors.Is(err, fleet.ErrAdmissionRejected) {
			rejects++
			return false, nil
		}
		return err == nil, err
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for k := 0; ; k++ {
		<-ticker.C
		now := r.cpf.Uptime()
		if now >= start+seconds {
			break
		}
		if now >= nextSample {
			snap, u := r.cpf.Snapshot(), readUsage()
			wheelDepth = append(wheelDepth, float64(snap.Total.WheelDepth))
			pending = append(pending, float64(snap.Total.PendingProbes))
			n := float64(snap.Total.RepliesIn - lastSnap.Total.RepliesIn)
			secRate = append(secRate, n/u.wall.Sub(lastUsage.wall).Seconds())
			secCPU = append(secCPU, float64((u.cpu()-lastUsage.cpu()).Nanoseconds())/1e3/n)
			lastSnap, lastUsage = snap, u
			nextSample += sampleEvery
		}
		if spec.crash && !crashed && now >= start+crashAfter {
			crashed = true
			crashStart = r.cpf.Uptime()
			if err := r.devs.RemoveDevice(r.dev[r.crash].ID()); err != nil {
				r.close()
				return nil, fmt.Errorf("crash: %w", err)
			}
			crashAt = r.cpf.Uptime()
			if mainLane != nil {
				mainLane.add(span{name: spanCrash, start: crashStart + r.spanOffset, end: crashAt + r.spanOffset, parent: phaseSpan})
			}
		}
		if spec.adminEvery == 0 {
			continue
		}
		if len(pool) < poolSize || k%2 == 0 {
			id := nextPoolID
			nextPoolID++
			ok, err := admin(spanAddCP, id, func() error { return r.addCP(id, survivor) })
			if err != nil {
				r.close()
				return nil, fmt.Errorf("admin add: %w", err)
			}
			if ok {
				pool = append(pool, id)
				liveSince[id] = r.cpf.Uptime()
			}
		} else {
			id := pool[0]
			ok, err := admin(spanRemoveCP, id, func() error { return r.cpf.RemoveControlPoint(id) })
			if err != nil {
				r.close()
				return nil, fmt.Errorf("admin remove: %w", err)
			}
			if ok {
				pool = pool[1:]
				cpSeconds += (r.cpf.Uptime() - liveSince[id]).Seconds()
				delete(liveSince, id)
			}
		}
	}
	end := r.cpf.Uptime()
	w1 := r.read()
	hists := r.cpf.Histograms()
	for _, since := range liveSince {
		cpSeconds += (end - since).Seconds()
	}
	r.tracing.Store(false)
	if mainLane != nil {
		mainLane.spans[0].start, mainLane.spans[0].end = start+r.spanOffset, end+r.spanOffset
	}
	r.close()

	// Everything below reads lanes the (now stopped) shard loops wrote.
	wall := end - start
	res := &fleetResult{e2e: map[string]float64{}, layer: map[string]float64{}}
	var all lane
	for _, ln := range r.lanes {
		all.cycle.merge(&ln.cycle)
		all.timerLate.merge(&ln.timerLate)
		all.cycles += ln.cycles
		all.retx += ln.retx
		all.lost = append(all.lost, ln.lost...)
		all.byes += ln.byes
		if all.dueTicks == nil {
			all.dueTicks = make([]uint32, len(ln.dueTicks))
		}
		for i, c := range ln.dueTicks {
			all.dueTicks[i] += c
		}
	}
	dTot, dDev := diffCounters(w0.cp.Total, w1.cp.Total), diffCounters(w0.dev.Total, w1.dev.Total)
	replies := float64(dTot.RepliesIn)
	cpu := w1.u.cpu() - w0.u.cpu()

	// Verdicts: a loss verdict on the crashed device after the crash call
	// is a detection, timed from the call's return; any other verdict is
	// false. missed_detect_ratio holds detection to the paper's budget
	// δ + TOF + 3·TOS plus one wheel tick; the run fails only on a CP that
	// has not declared the crash by the deadline, which allows another
	// full retransmission budget of timer lateness.
	crashID := r.dev[r.crash].ID()
	budget := core.DefaultRetransmit().WorstCaseDetection()
	bound := spec.period + budget + wheelTick
	deadline := spec.period + 2*budget
	var detect, verdictLate hist
	detectedAt := map[ident.NodeID]time.Duration{}
	falseAbsent := all.byes
	for _, v := range all.lost {
		if crashed && v.device == crashID && v.at >= crashStart {
			detect.add(int64(v.at - crashAt))
			verdictLate.add(int64(v.at - v.due - budget))
			detectedAt[v.cp] = v.at
			continue
		}
		falseAbsent++
	}
	crashedCPs, missed, undetected := 0, 0, 0
	if crashed {
		for id, o := range r.obs {
			if o.device != crashID || id >= 1<<31 {
				continue
			}
			crashedCPs++
			at, ok := detectedAt[id]
			if !ok || at > crashAt+bound {
				missed++
			}
			if !ok || at > crashAt+deadline {
				undetected++
			}
		}
	}
	// Live CP-seconds: every initial CP until the window ends (or the
	// crash, for the crashed device's CPs), plus the pool's lifetimes.
	for id, o := range r.obs {
		if id >= 1<<31 {
			continue
		}
		if crashed && o.device == crashID {
			cpSeconds += (crashAt - start).Seconds()
		} else {
			cpSeconds += wall.Seconds()
		}
	}
	monitored := spec.cps + int(nextPoolID-(1<<31))
	failures := int64(falseAbsent + undetected + int(rejects) + int(dTot.DecodeErrors+dTot.SendErrors+dDev.DecodeErrors+dDev.SendErrors))
	res.attempted = int64(all.cycles) + adminOps + int64(crashedCPs)
	res.failed = failures

	// A stationary window reports the median of its one-second rates,
	// which a passing stall elsewhere on the machine cannot move; the
	// crash makes a window non-stationary, so it reports totals.
	probesPerS := replies / wall.Seconds()
	cpuPerProbe := float64(cpu.Nanoseconds()) / 1e3 / replies
	if !spec.crash && len(secRate) > 0 {
		probesPerS, cpuPerProbe = median(secRate), median(secCPU)
	}
	res.e2e["probes_per_s"] = probesPerS
	res.e2e["cpu_us_per_probe"] = cpuPerProbe

	L := res.layer
	L["cycle_p50_ms"] = all.cycle.quantileMs(0.50)
	L["cycle_p99_ms"] = all.cycle.quantileMs(0.99)
	L["cycle_samples"] = float64(all.cycle.n)
	L["detect_p50_ms"] = detect.quantileMs(0.50)
	L["detect_p99_ms"] = detect.quantileMs(0.99)
	L["detect_samples"] = float64(detect.n)
	L["fleet.verdict_late_p99_us"] = verdictLate.quantileUs(0.99)
	L["false_absent_ratio"] = ratio(float64(falseAbsent), float64(monitored))
	L["missed_detect_ratio"] = ratio(float64(missed), float64(crashedCPs))
	L["admin_p99_ms"] = adminLat.quantileMs(0.99)
	L["admin_samples"] = float64(adminLat.n)
	L["admin_reject_ratio"] = ratio(float64(rejects), float64(adminOps))

	pkts := float64(dTot.PacketsIn + dTot.PacketsOut + dDev.PacketsIn + dDev.PacketsOut)
	calls := float64(dTot.SyscallsIn + dTot.SyscallsOut + dDev.SyscallsIn + dDev.SyscallsOut)
	L["fleet.syscalls_per_packet"] = ratio(calls, pkts)
	L["fleet.batch_fill_in"] = ratio(float64(dTot.PacketsIn+dDev.PacketsIn), float64(dTot.SyscallsIn+dDev.SyscallsIn))
	L["fleet.batch_fill_out"] = ratio(float64(dTot.PacketsOut+dDev.PacketsOut), float64(dTot.SyscallsOut+dDev.SyscallsOut))
	L["kernel.sys_share"] = ratio(float64(w1.u.sys-w0.u.sys), float64(cpu))
	L["kernel.rcvbuf_errors"] = float64(w1.udp["RcvbufErrors"] - w0.udp["RcvbufErrors"])
	var peak, total float64
	for _, c := range all.dueTicks {
		peak = math.Max(peak, float64(c))
		total += float64(c)
	}
	L["core.due_burst"] = ratio(peak, total/float64(len(all.dueTicks)))
	L["fleet.timer_late_p99_us"] = all.timerLate.quantileUs(0.99)
	L["fleet.cascade_p99_us"] = float64(hists.CascadeDuration.Quantile(0.99))
	L["core.retransmit_ratio"] = ratio(float64(all.retx), float64(all.cycles+all.retx))
	L["fleet.timers_per_probe"] = ratio(float64(dTot.TimersFired), float64(dTot.ProbesOut))
	L["fleet.wheel_depth"] = median(wheelDepth)
	L["fleet.pending_probes"] = median(pending)
	L["fleet.rtt_p50_us"] = float64(hists.ProbeRTT.Quantile(0.50))
	L["fleet.rtt_p99_us"] = float64(hists.ProbeRTT.Quantile(0.99))
	L["fleet.demux_drops_per_kprobe"] = 1000 * ratio(float64(dTot.DemuxDrops), float64(dTot.ProbesOut))
	L["fleet.handoffs_per_kprobe"] = 1000 * ratio(float64(dTot.HandoffsOut), float64(dTot.ProbesOut))
	L["fleet.probes_shed"] = float64(dTot.ProbesShed + dDev.ProbesShed)
	L["fleet.auth_rejected"] = float64(dTot.AuthRejected + dDev.AuthRejected)
	L["fleet.decode_errors"] = float64(dTot.DecodeErrors + dDev.DecodeErrors)
	L["fleet.send_errors"] = float64(dTot.SendErrors + dDev.SendErrors)
	L["memnet.overflowed"] = float64(w1.mem.Overflowed - w0.mem.Overflowed)
	L["runtime.alloc_bytes_per_probe"] = ratio(float64(w1.g.allocBytes-w0.g.allocBytes), replies)
	L["runtime.gc_cpu_share"] = ratio(w1.g.gcCPU-w0.g.gcCPU, w1.g.totalCPU-w0.g.totalCPU)

	// Correctness: the fleet must neither fail nor shed anything, and a
	// paced fleet must deliver what its live CPs offer.
	for _, k := range []string{"fleet.probes_shed", "fleet.auth_rejected", "fleet.decode_errors", "fleet.send_errors", "memnet.overflowed"} {
		if L[k] != 0 {
			res.problems = append(res.problems, fmt.Sprintf("%s = %g, want 0", k, L[k]))
		}
	}
	if falseAbsent > 0 {
		res.problems = append(res.problems, fmt.Sprintf("%d false ABSENT verdicts on live devices", falseAbsent))
	}
	if spec.crash {
		if undetected > 0 {
			res.problems = append(res.problems, fmt.Sprintf("%d of %d CPs of the crashed device not declared lost within %v", undetected, crashedCPs, deadline))
		}
		if crashedCPs == 0 {
			res.problems = append(res.problems, "no CP monitored the crashed device")
		}
		offered := cpSeconds / spec.period.Seconds() / wall.Seconds()
		if math.Abs(probesPerS-offered) > 0.05*offered {
			res.problems = append(res.problems, fmt.Sprintf("probes_per_s %.0f does not track the offered rate %.0f of live CPs", probesPerS, offered))
		}
	}
	if rejects > 0 {
		res.problems = append(res.problems, fmt.Sprintf("%d admin operations rejected", rejects))
	}
	if replies == 0 {
		res.problems = append(res.problems, "no replies in the window")
	}
	return res, nil
}

// reading is every counter a measured window is the difference of.
type reading struct {
	u       usage
	g       goRuntime
	udp     map[string]int64 // the kernel's Udp: counters
	cp, dev fleet.Snapshot
	mem     memnet.Counters
}

func (r *fleetRun) read() reading {
	rd := reading{u: readUsage(), g: readGoRuntime(), udp: udpCounters(),
		cp: r.cpf.Snapshot(), dev: r.devs.Snapshot()}
	if r.net != nil {
		rd.mem = r.net.Counters()
	}
	return rd
}

// diffCounters subtracts the cumulative counters the benchmark reads.
func diffCounters(a, b fleet.Counters) fleet.Counters {
	return fleet.Counters{
		PacketsIn: b.PacketsIn - a.PacketsIn, PacketsOut: b.PacketsOut - a.PacketsOut,
		DecodeErrors: b.DecodeErrors - a.DecodeErrors, SendErrors: b.SendErrors - a.SendErrors,
		ProbesOut: b.ProbesOut - a.ProbesOut, RepliesIn: b.RepliesIn - a.RepliesIn,
		DemuxDrops: b.DemuxDrops - a.DemuxDrops, TimersFired: b.TimersFired - a.TimersFired,
		ProbesShed: b.ProbesShed - a.ProbesShed, AuthRejected: b.AuthRejected - a.AuthRejected,
		HandoffsOut: b.HandoffsOut - a.HandoffsOut,
		SyscallsIn:  b.SyscallsIn - a.SyscallsIn, SyscallsOut: b.SyscallsOut - a.SyscallsOut,
	}
}

// runFleet is one fleet workload run: several boots for setup_s, then
// the measured window on the last one; traced, a second boot measures
// again with spans and a CPU profile.
func runFleet(spec *fleetSpec, seed uint64, seconds time.Duration, out *output) error {
	var setups []float64
	var r *fleetRun
	for b := 0; b < spec.boots; b++ {
		if r != nil {
			r.close()
		}
		runtime.GC() // boot on a clean heap, not the previous boot's garbage
		var setup time.Duration
		var err error
		if r, setup, err = boot(spec, seed, nil); err != nil {
			return err
		}
		setups = append(setups, setup.Seconds())
	}
	res, err := r.measure(seconds)
	if err != nil {
		return err
	}
	u := readUsage()
	out.e2e["setup_s"] = median(setups)
	for k, v := range res.e2e {
		out.e2e[k] = v
	}
	out.e2e["max_rss_mb"] = float64(u.maxRSSKiB) / 1024
	out.attempted, out.failed = res.attempted, res.failed
	out.problems = append(out.problems, res.problems...)
	out.note("%s: setup %v, %.0f probes/s, %.2f us CPU/probe, cycle p50 %.3f ms p99 %.3f ms, detect p99 %.1f ms, admin p99 %.3f ms",
		spec.name, setups, res.e2e["probes_per_s"], res.e2e["cpu_us_per_probe"], res.layer["cycle_p50_ms"], res.layer["cycle_p99_ms"],
		res.layer["detect_p99_ms"], res.layer["admin_p99_ms"])
	if out.dir == "" {
		return nil
	}
	for k, v := range res.layer {
		out.layer[k] = v
	}
	// Traced pass: same seed, one boot, spans on, CPU profiled.
	runtime.GC()
	out.spans = newSpanLog(laneSim + 1)
	spans := out.spans
	tr, _, err := boot(spec, seed, spans)
	if err != nil {
		return err
	}
	prof, err := out.startProfile()
	if err != nil {
		tr.close()
		return err
	}
	tres, err := tr.measure(seconds)
	pprof.StopCPUProfile()
	if cerr := prof.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	out.attempted += tres.attempted
	out.failed += tres.failed
	out.problems = append(out.problems, tres.problems...)
	out.layer["trace.overhead"] = ratio(tres.e2e["cpu_us_per_probe"], res.e2e["cpu_us_per_probe"]) - 1
	return out.profileShares()
}
