package main

import (
	"time"

	"presence/internal/core"
	"presence/internal/core/naive"
	"presence/internal/fleet"
	"presence/internal/ident"
	"presence/internal/wire"
)

// The layer microbenchmarks time public entry points in a tight loop:
// each reports the median over microReps timed batches of its ns per
// operation. They run in every traced run, so they also show whether a
// change moved a layer the workload does not exercise.
const (
	microReps  = 5
	microBatch = 50 * time.Millisecond
)

// nsPerOp times op (which performs perCall operations per call) in
// batches of about microBatch and returns the median ns per operation.
func nsPerOp(perCall int, op func()) float64 {
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		if time.Since(t0) >= microBatch/10 {
			break
		}
		n *= 2
	}
	n *= 10
	var xs []float64
	for r := 0; r < microReps; r++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/float64(n*perCall))
	}
	return median(xs)
}

// hotPathNs times fleet.HotPathBench per packet for each option set,
// interleaving the sets within every repetition so that drift on a shared
// machine cancels out of their differences; it returns per set the median
// over repetitions of ns per packet and, for every set after the first,
// the median of its per-repetition difference to the first.
func hotPathNs(sets ...fleet.HotPathOptions) (base float64, diffs []float64, err error) {
	benches := make([]*fleet.HotPathBench, len(sets))
	for i, o := range sets {
		if benches[i], err = fleet.NewHotPathBench(o); err != nil {
			return 0, nil, err
		}
		defer benches[i].Close()
	}
	steps := 1
	for {
		t0 := time.Now()
		for i := 0; i < steps; i++ {
			benches[0].Step()
		}
		if time.Since(t0) >= microBatch {
			break
		}
		steps *= 2
	}
	per := make([][]float64, len(sets))
	for r := 0; r < 2*microReps+1; r++ {
		t := make([]float64, len(benches))
		for i, b := range benches {
			t0 := time.Now()
			for k := 0; k < steps; k++ {
				b.Step()
			}
			t[i] = float64(time.Since(t0).Nanoseconds()) / float64(steps*b.PacketsPerStep())
		}
		per[0] = append(per[0], t[0])
		for i := 1; i < len(sets); i++ {
			per[i] = append(per[i], t[i]-t[0])
		}
	}
	for i := 1; i < len(sets); i++ {
		diffs = append(diffs, median(per[i]))
	}
	return median(per[0]), diffs, nil
}

// benchEnv is a core.Env whose clock advances by hand and whose sends
// are recycled at once: it isolates the prober's own cost.
type benchEnv struct {
	now   time.Duration
	cycle uint32
}

func (e *benchEnv) Now() time.Duration { return e.now }
func (e *benchEnv) Send(_ ident.NodeID, m core.Message) {
	if p, ok := m.(*core.ProbeMsg); ok {
		e.cycle = p.Cycle
	}
	core.Recycle(m)
}
func (e *benchEnv) SetAlarm(time.Duration) {}
func (e *benchEnv) StopAlarm()             {}

// proberCycleNs is the cost of one probe cycle through core.Prober: the
// alarm that opens it and the reply that closes it.
func proberCycleNs() (float64, error) {
	env := &benchEnv{}
	policy, err := naive.NewPolicy(time.Millisecond)
	if err != nil {
		return 0, err
	}
	p, err := core.NewProber(core.ProberOptions{ID: 2, Device: 1, Env: env, Policy: policy})
	if err != nil {
		return 0, err
	}
	p.Start()
	reply := core.ReplyMsg{From: 1, Payload: core.EmptyReply{}}
	return nsPerOp(1, func() {
		reply.Cycle = env.cycle
		p.OnReply(reply)
		env.now += time.Millisecond
		p.OnAlarm()
	}), nil
}

// codecNs times the wire codec on the frames the fleet workloads carry:
// a probe and an empty reply, averaged per frame.
func codecNs(out *output) error {
	frames := []wire.Frame{
		{Kind: wire.KindProbe, From: 2, Cycle: 7},
		{Kind: wire.KindReplyEmpty, From: 1, Cycle: 7},
	}
	k, err := wire.DeriveKey(authMaster, wire.PairInfo(2, 1))
	if err != nil {
		return err
	}
	buf := make([]byte, 0, wire.MaxFrameSize)
	var plain, signed [2][]byte
	for i := range frames {
		f := frames[i]
		b, err := wire.AppendEncodeFrame(nil, &f)
		if err != nil {
			return err
		}
		plain[i] = b
		if signed[i], err = wire.AppendEncodeFrameAuth(nil, &f, k); err != nil {
			return err
		}
	}
	var f wire.Frame
	out.layer["wire.encode_ns"] = nsPerOp(2, func() {
		for i := range frames {
			buf, _ = wire.AppendEncodeFrame(buf[:0], &frames[i])
		}
	})
	out.layer["wire.decode_ns"] = nsPerOp(2, func() {
		for i := range plain {
			_ = wire.DecodeFrame(plain[i], &f)
		}
	})
	out.layer["wire.encode_auth_ns"] = nsPerOp(2, func() {
		for i := range frames {
			buf, _ = wire.AppendEncodeFrameAuth(buf[:0], &frames[i], k)
		}
	})
	decoded := make([]wire.Frame, 2)
	for i := range signed {
		if err := wire.DecodeFrame(signed[i], &decoded[i]); err != nil {
			return err
		}
		if !k.VerifyFrame(&decoded[i]) {
			out.problems = append(out.problems, "wire: a freshly signed frame failed verification")
		}
	}
	out.layer["wire.verify_ns"] = nsPerOp(2, func() {
		for i := range decoded {
			_ = k.VerifyFrame(&decoded[i])
		}
	})
	return nil
}

// runMicro fills the microbenchmark layer metrics.
func runMicro(out *output) error {
	base, diffs, err := hotPathNs(fleet.HotPathOptions{},
		fleet.HotPathOptions{DisableTelemetry: true}, fleet.HotPathOptions{Auth: true})
	if err != nil {
		return err
	}
	out.layer["fleet.shard_ns_per_packet"] = base
	out.layer["fleet.telemetry_ns_per_packet"] = -diffs[0]
	out.layer["fleet.auth_ns_per_packet"] = diffs[1]
	if out.layer["core.prober_cycle_ns"], err = proberCycleNs(); err != nil {
		return err
	}
	return codecNs(out)
}
