package fleet_test

// Admin latency over memnet: an admin command reaches its shard loop
// through the command inbox plus a wake-up poke that expires the
// loop's read deadline. The poke must wake a loop already parked in a
// read — otherwise every command waits out the loop's poll (up to
// 50 ms on a shard whose next alarm is far off) and bulk
// administration of an in-process fleet crawls.

import (
	"sync/atomic"
	"testing"
	"time"

	"presence/internal/core"
	"presence/internal/core/naive"
	"presence/internal/fleet"
	"presence/internal/ident"
	"presence/internal/memnet"
)

func TestAdminLatencyOverMemnet(t *testing.T) {
	const (
		nCPs     = 200
		deviceID = ident.NodeID(7)
		baseID   = ident.NodeID(1000)
	)
	net := memnet.New(memnet.Faults{})
	defer net.Close()
	transport := fleet.TransportFunc(func(int) (fleet.PacketConn, error) { return net.Listen() })

	devFleet, err := fleet.New(fleet.Config{Shards: 1, Transport: transport})
	if err != nil {
		t.Fatal(err)
	}
	defer devFleet.Close()
	if err := devFleet.Start(); err != nil {
		t.Fatal(err)
	}
	dev, err := devFleet.AddDevice(deviceID, func(env core.Env) (core.Device, error) {
		return naive.NewDevice(deviceID, env)
	})
	if err != nil {
		t.Fatal(err)
	}

	// Two shards so DrainShard has somewhere to move control points to;
	// each add runs on one shard loop, so its latency is that loop's
	// wake-up latency.
	var verdicts atomic.Int64
	cpFleet, err := fleet.New(fleet.Config{
		Shards: 2, Transport: transport,
		Verdicts: func(fleet.VerdictEvent) { verdicts.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cpFleet.Close()
	if err := cpFleet.Start(); err != nil {
		t.Fatal(err)
	}

	cps := make([]*fleet.ControlPoint, nCPs)
	start := time.Now()
	for i := range cps {
		policy, err := naive.NewPolicy(time.Second)
		if err != nil {
			t.Fatal(err)
		}
		cps[i], err = cpFleet.AddControlPoint(fleet.CPConfig{
			ID: baseID + ident.NodeID(i), Device: deviceID, DeviceAddrPort: dev.Addr(),
			Policy: policy,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	took := time.Since(start)
	t.Logf("%d sequential adds took %v", nCPs, took)
	if took > 2*time.Second {
		t.Fatalf("%d sequential AddControlPoint calls took %v, want < 2s", nCPs, took)
	}

	waitCycles := func(what string, want func(i int) uint64) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for i, cp := range cps {
			for cp.Stats().CyclesOK < want(i) {
				if time.Now().After(deadline) {
					t.Fatalf("%s: cp %v stuck at %d cycles", what, cp.ID(), cp.Stats().CyclesOK)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}
	waitCycles("before drain", func(int) uint64 { return 1 })
	before := make([]uint64, nCPs)
	for i, cp := range cps {
		before[i] = cp.Stats().CyclesOK
	}
	moved, err := cpFleet.DrainShard(0)
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("DrainShard(0) moved no control points")
	}
	// Two more cycles each: every migrated alarm fired on its new shard.
	waitCycles("after drain", func(i int) uint64 { return before[i] + 2 })
	if v := verdicts.Load(); v != 0 {
		t.Fatalf("draining %d control points produced %d verdicts, want 0", moved, v)
	}
}
