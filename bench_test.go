// Benchmarks regenerating the paper's evaluation, one target per table
// and figure (plus the Section 4.5 ablations). Workload sizes are scaled
// so a full -bench=. run finishes in minutes; cmd/paperbench exposes the
// same experiments with adjustable scale, repeats and worker ranges, up
// to the paper's full protocol.
package hjdes_test

import (
	"fmt"
	"testing"

	"hjdes/internal/circuit"
	"hjdes/internal/core"
	"hjdes/internal/netdes"
)

// benchCircuits mirrors harness.PaperCircuits at bench-friendly wave
// counts (events per run stay near a few million).
var benchCircuits = []struct {
	name  string
	build func() *circuit.Circuit
	waves int
}{
	{"multiplier-12", func() *circuit.Circuit { return circuit.TreeMultiplier(12) }, 1},
	{"koggestone-64", func() *circuit.Circuit { return circuit.KoggeStone(64) }, 25},
	{"koggestone-128", func() *circuit.Circuit { return circuit.KoggeStone(128) }, 8},
}

func benchStim(c *circuit.Circuit, waves int) *circuit.Stimulus {
	return circuit.RandomStimulus(c, waves, c.SettleTime()+10, 1)
}

func runEngine(b *testing.B, e core.Engine, c *circuit.Circuit, stim *circuit.Stimulus) {
	b.Helper()
	var events int64
	for i := 0; i < b.N; i++ {
		res, err := e.Run(c, stim)
		if err != nil {
			b.Fatal(err)
		}
		events = res.TotalEvents
	}
	b.ReportMetric(float64(events), "events/run")
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mevents/s")
}

// BenchmarkTable1Profiles regenerates Table 1: circuit construction and
// event-volume accounting for the three input circuits.
func BenchmarkTable1Profiles(b *testing.B) {
	for _, bc := range benchCircuits {
		b.Run(bc.name, func(b *testing.B) {
			c := bc.build()
			stim := benchStim(c, bc.waves)
			b.ReportMetric(float64(c.NumNodes()), "nodes")
			b.ReportMetric(float64(c.NumEdges()), "edges")
			b.ReportMetric(float64(stim.NumEvents()), "initial-events")
			runEngine(b, core.NewSequential(core.Options{DiscardOutputs: true}), c, stim)
		})
	}
}

// BenchmarkTable2Sequential regenerates Table 2: the two sequential
// implementations (HJlib-style deques vs Galois-style priority queues)
// on each circuit.
func BenchmarkTable2Sequential(b *testing.B) {
	for _, bc := range benchCircuits {
		c := bc.build()
		stim := benchStim(c, bc.waves)
		b.Run(bc.name+"/hjlib-seq", func(b *testing.B) {
			runEngine(b, core.NewSequential(core.Options{DiscardOutputs: true}), c, stim)
		})
		b.Run(bc.name+"/galois-seq", func(b *testing.B) {
			runEngine(b, core.NewSequentialPQ(core.Options{DiscardOutputs: true}), c, stim)
		})
	}
}

// BenchmarkFig1ParallelismProfile regenerates Figure 1: the available
// parallelism profile of the 6-bit tree multiplier.
func BenchmarkFig1ParallelismProfile(b *testing.B) {
	c := circuit.TreeMultiplier(6)
	var peak int
	for i := 0; i < b.N; i++ {
		profile, err := core.ProfileCircuit(c, 1)
		if err != nil {
			b.Fatal(err)
		}
		peak = core.MaxParallelism(profile)
	}
	b.ReportMetric(float64(peak), "peak-parallelism")
}

// figSweep runs one of Figures 4-6: HJ and Galois engines across worker
// counts on the given circuit.
func figSweep(b *testing.B, build func() *circuit.Circuit, waves int) {
	b.Helper()
	c := build()
	stim := benchStim(c, waves)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("hj/workers=%d", workers), func(b *testing.B) {
			runEngine(b, core.NewHJ(core.Options{Workers: workers, DiscardOutputs: true}), c, stim)
		})
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("galois/workers=%d", workers), func(b *testing.B) {
			runEngine(b, core.NewGalois(core.Options{Workers: workers, DiscardOutputs: true}), c, stim)
		})
	}
}

// BenchmarkFig4Multiplier12 regenerates Figure 4 (12-bit tree multiplier).
func BenchmarkFig4Multiplier12(b *testing.B) {
	figSweep(b, func() *circuit.Circuit { return circuit.TreeMultiplier(12) }, 1)
}

// BenchmarkFig5KoggeStone64 regenerates Figure 5 (64-bit Kogge-Stone adder).
func BenchmarkFig5KoggeStone64(b *testing.B) {
	figSweep(b, func() *circuit.Circuit { return circuit.KoggeStone(64) }, 25)
}

// BenchmarkFig6KoggeStone128 regenerates Figure 6 (128-bit Kogge-Stone adder).
func BenchmarkFig6KoggeStone128(b *testing.B) {
	figSweep(b, func() *circuit.Circuit { return circuit.KoggeStone(128) }, 8)
}

// BenchmarkFig7AverageMaxWorkers regenerates Figure 7: both parallel
// versions at the maximum worker count on all three circuits (testing.B
// repetition plays the role of the paper's 20 runs; mean and variance
// come from -count and benchstat).
func BenchmarkFig7AverageMaxWorkers(b *testing.B) {
	const workers = 8
	for _, bc := range benchCircuits {
		c := bc.build()
		stim := benchStim(c, bc.waves)
		b.Run(bc.name+"/hj", func(b *testing.B) {
			runEngine(b, core.NewHJ(core.Options{Workers: workers, DiscardOutputs: true}), c, stim)
		})
		b.Run(bc.name+"/galois", func(b *testing.B) {
			runEngine(b, core.NewGalois(core.Options{Workers: workers, DiscardOutputs: true}), c, stim)
		})
	}
}

// Ablation benchmarks: the Section 4.5 design choices, each toggled off
// individually on the 12-bit multiplier at 4 workers.

func ablation(b *testing.B, opts core.Options) {
	b.Helper()
	opts.Workers = 4
	opts.DiscardOutputs = true
	c := circuit.TreeMultiplier(12)
	stim := benchStim(c, 1)
	runEngine(b, core.NewHJ(opts), c, stim)
}

// BenchmarkAblationOptimized is the fully optimized reference.
func BenchmarkAblationOptimized(b *testing.B) { ablation(b, core.Options{}) }

// BenchmarkAblationPerPortVsPQ disables per-port deques (Section 4.5.1):
// one priority queue per node, as in Galois-Java.
func BenchmarkAblationPerPortVsPQ(b *testing.B) { ablation(b, core.Options{PerNodePQ: true}) }

// BenchmarkAblationLockGranularity disables per-port locks (4.5.1):
// one lock per node.
func BenchmarkAblationLockGranularity(b *testing.B) { ablation(b, core.Options{PerNodeLocks: true}) }

// BenchmarkAblationTempQueue disables the temporary ready queue (4.5.1):
// input-port locks are held for the whole processing run.
func BenchmarkAblationTempQueue(b *testing.B) { ablation(b, core.Options{NoTempQueue: true}) }

// BenchmarkAblationRespawn disables the avoidance of unnecessary asyncs
// (4.5.3): every run respawns tasks for all downstream neighbors.
func BenchmarkAblationRespawn(b *testing.B) { ablation(b, core.Options{NaiveRespawn: true}) }

// BenchmarkAblationIsolated replaces fine-grained TryLock with the
// global isolated construct (Section 3.2's pre-extension HJlib).
func BenchmarkAblationIsolated(b *testing.B) { ablation(b, core.Options{GlobalIsolated: true}) }

// BenchmarkAblationMutexLocks backs every lock with a sync.Mutex instead
// of an atomic boolean (Section 4.5.2's AtomicBoolean-vs-ReentrantLock
// argument).
func BenchmarkAblationMutexLocks(b *testing.B) { ablation(b, core.Options{MutexLocks: true}) }

// BenchmarkTimeWarp measures the optimistic engine (related work §2.1)
// on a smaller multiplier: rollback storms make Time Warp orders of
// magnitude slower than the conservative engines on reconvergent
// circuits, which is why a full-size workload is not used here (see
// EXPERIMENTS.md).
func BenchmarkTimeWarp(b *testing.B) {
	c := circuit.TreeMultiplier(8)
	stim := benchStim(c, 1)
	for _, tc := range []struct {
		name   string
		window int64
	}{
		{"unbounded", 0},
		{"window=64", 64},
	} {
		b.Run(tc.name, func(b *testing.B) {
			e := core.NewTimeWarp(core.Options{Workers: 4, TimeWarpWindow: tc.window, DiscardOutputs: true})
			runEngine(b, e, c, stim)
		})
	}
}

// BenchmarkNetDES measures the future-work packet-network simulator
// (extension experiment): an 8x8 mesh under crossing flows, sequential
// vs hj-parallel supersteps.
func BenchmarkNetDES(b *testing.B) {
	nw := netdes.Grid(8, 8, 1, 1)
	tr := netdes.Traffic{
		{Src: 0, Dst: 63, Start: 1, Interval: 1, Count: 1000},
		{Src: 63, Dst: 0, Start: 1, Interval: 1, Count: 1000},
		{Src: 7, Dst: 56, Start: 1, Interval: 1, Count: 1000},
	}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := netdes.Simulate(nw, tr, netdes.Config{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if res.Delivered != 3000 {
					b.Fatalf("delivered %d", res.Delivered)
				}
			}
		})
	}
}

// BenchmarkLPEngine measures the partitioned logical-process engine
// (Chandy–Misra–Bryant null messages over circuit partitions, the
// PARSIR-style extension) across partition counts, reporting the
// null-message ratio — the canonical CMB overhead metric — alongside
// throughput.
func BenchmarkLPEngine(b *testing.B) {
	for _, bc := range benchCircuits {
		c := bc.build()
		stim := benchStim(c, bc.waves)
		for _, parts := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/partitions=%d", bc.name, parts), func(b *testing.B) {
				e := core.NewLPHJ(core.Options{Partitions: parts, DiscardOutputs: true})
				var last *core.Result
				for i := 0; i < b.N; i++ {
					res, err := e.Run(c, stim)
					if err != nil {
						b.Fatal(err)
					}
					last = res
				}
				b.ReportMetric(float64(last.TotalEvents), "events/run")
				b.ReportMetric(float64(last.TotalEvents)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mevents/s")
				b.ReportMetric(last.LP.NullRatio(), "null-ratio")
				b.ReportMetric(100*last.LP.EdgeCut, "edge-cut-%")
			})
		}
	}
}
