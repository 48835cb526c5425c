package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"presence/internal/scenario"
)

// The simulator's layers (des, simnet, simrun) are measured in every
// traced run: the fig5-uniform-churn world of the run's seed, run to a
// long horizon in ten equal slices, simWorlds times. (Its end-to-end
// throughput is not a workload: it drifts with the machine by more than
// any bound the benchmark may set; see NOTES.md.)
const (
	// simHorizon is long enough that the world's CP history (every CP that
	// ever joined, about half a CP per simulated second under fig5 churn)
	// dominates per-redraw cost, and short enough for a few worlds per
	// traced run.
	simHorizon = 50000 * time.Second
	simSlices  = 10
	simWorlds  = 3
	// paperLoad is Fig. 5's steady-state device load (probes/s); the
	// long-horizon mean must land within paperLoadTol of it.
	paperLoad    = 9.7
	paperLoadTol = 0.1
)

// simWorld is what one world run to the horizon yields.
type simWorld struct {
	wall     time.Duration
	slices   [simSlices]time.Duration
	events   uint64
	cycles   uint64
	cpsEver  int
	loadMean float64
}

// runSimWorld builds the seed's world and runs it to the horizon in equal
// slices, timing each and spanning the build and every slice.
func runSimWorld(spec *scenario.Spec, seed uint64, spans *spanLane, log *spanLog) (*simWorld, error) {
	parent := noSpan
	var t0 time.Duration
	if spans != nil {
		t0 = log.now()
		parent = spans.add(span{name: spanPhase, start: t0, parent: noSpan})
	}
	w, err := spec.World(seed)
	if err != nil {
		return nil, err
	}
	if spans != nil {
		spans.add(span{name: spanWorldBuild, start: t0, end: log.now(), parent: parent})
	}
	res := &simWorld{}
	start := time.Now()
	for i := 1; i <= simSlices; i++ {
		if spans != nil {
			t0 = log.now()
		}
		s := time.Now()
		w.Run(simHorizon * time.Duration(i) / simSlices)
		res.slices[i-1] = time.Since(s)
		if spans != nil {
			spans.add(span{name: spanRunSlice, start: t0, end: log.now(), parent: parent, cycle: uint32(i)})
		}
	}
	res.wall = time.Since(start)
	if parent != noSpan {
		spans.spans[int(parent)&(1<<24-1)].end = log.now()
	}
	res.events = w.Sim().Executed()
	all := w.AllCPs()
	res.cpsEver = len(all)
	for _, h := range all {
		if h.Prober != nil {
			res.cycles += h.Prober.Stats().CyclesOK
		}
	}
	load := w.DeviceLoad().Stats()
	res.loadMean = load.Mean()
	return res, nil
}

// checkWorld records problems with one world: its event count must match
// the run's first world of the same seed, and its load the paper's.
func checkWorld(out *output, first, w *simWorld) {
	if w.events != first.events {
		out.problems = append(out.problems, fmt.Sprintf("des.events %d differs from %d on the same seed", w.events, first.events))
	}
	if math.Abs(w.loadMean-paperLoad) > paperLoadTol*paperLoad {
		out.problems = append(out.problems, fmt.Sprintf("device load mean %.3f outside %.1f ± %.0f%%", w.loadMean, paperLoad, 100*paperLoadTol))
	}
	if w.cycles == 0 {
		out.problems = append(out.problems, "no probe cycles completed")
	}
}

// runSimLayers fills the des.*, simrun.* and sim_s_per_wall_s metrics and
// the slice table, recording spans into lane.
func runSimLayers(seed uint64, out *output, lane *spanLane, log *spanLog) error {
	spec, ok := scenario.ByName("fig5-uniform-churn")
	if !ok {
		return fmt.Errorf("scenario fig5-uniform-churn is not registered")
	}
	var worlds []*simWorld
	for i := 0; i < simWorlds; i++ {
		runtime.GC() // start each world from the same heap, not the last world's garbage
		w, err := runSimWorld(spec, seed, lane, log)
		if err != nil {
			return err
		}
		worlds = append(worlds, w)
		checkWorld(out, worlds[0], w)
	}
	var simRate, nsPerEvent, slowdown []float64
	for _, w := range worlds {
		simRate = append(simRate, simHorizon.Seconds()/w.wall.Seconds())
		nsPerEvent = append(nsPerEvent, float64(w.wall.Nanoseconds())/float64(w.events))
		slowdown = append(slowdown, float64(w.slices[simSlices-1])/float64(w.slices[0]))
	}
	first := worlds[0]
	L := out.layer
	L["sim_s_per_wall_s"] = median(simRate)
	L["des.events"] = float64(first.events)
	L["des.ns_per_event"] = median(nsPerEvent)
	L["simrun.cps_ever"] = float64(first.cpsEver)
	L["simrun.slowdown"] = median(slowdown)
	var table []string
	for i := range first.slices {
		var walls []float64
		for _, w := range worlds {
			walls = append(walls, w.slices[i].Seconds())
		}
		d := median(walls)
		table = append(table, fmt.Sprintf("slice %2d (to %5.0f s): %.3f s wall, %6.0f sim-s/s (median of %d worlds)",
			i+1, (simHorizon*time.Duration(i+1)/simSlices).Seconds(), d, (simHorizon/simSlices).Seconds()/d, len(worlds)))
	}
	out.tables["simrun.slices"] = table
	out.note("fig5-uniform-churn seed %d to %v: %.0f sim-s/s, des.events %d, cps ever %d, load mean %.3f, slowdown %.2f",
		seed, simHorizon, median(simRate), first.events, first.cpsEver, first.loadMean, median(slowdown))
	return nil
}
