package core

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"hjdes/internal/circuit"
)

// The barrier-free engine must commit exactly what the sequential
// reference produces on every circuit family, with speculation armed
// (Paranoid also arms the in-engine GVT-safety assertion: a received
// event below published GVT panics the run).
func TestTWHJCircuits(t *testing.T) {
	for _, tc := range []struct {
		c     *circuit.Circuit
		waves int
	}{
		{circuit.FullAdder(), 12},
		{circuit.Mux2(), 10},
		{circuit.C17(), 10},
		{circuit.ParityChain(16), 5},
		{circuit.KoggeStone(12), 6},
		{circuit.BrentKung(10), 6},
		{circuit.TreeMultiplier(5), 4},
		{circuit.Butterfly(3), 6},
	} {
		t.Run(tc.c.Name, func(t *testing.T) {
			twVerify(t, NewTWHJ(Options{Paranoid: true}), tc.c, tc.waves, 51)
		})
	}
}

func TestTWHJRandomCircuits(t *testing.T) {
	for _, seed := range []int64{61, 62, 63, 64} {
		c := circuit.RandomDAG(circuit.RandomConfig{Inputs: 6, Gates: 90, Outputs: 5, Seed: seed})
		twVerify(t, NewTWHJ(Options{Paranoid: true}), c, 4, seed)
	}
}

// The optimism window is scheduling-only: any bound (including the
// degenerate 1 and the effectively-unbounded 1<<40) commits identical
// results, and a bounded window renames the engine.
func TestTWHJWindows(t *testing.T) {
	c := circuit.TreeMultiplier(4)
	for _, w := range []int64{0, 1, 5, 50, 1 << 40} {
		res := twVerify(t, NewTWHJ(Options{TimeWarpWindow: w, Paranoid: true}), c, 4, 53)
		if w > 0 && res.Engine == "tw-hj" {
			t.Fatalf("windowed engine misnamed %q", res.Engine)
		}
	}
}

// Incremental state saving is semantics-preserving for every interval:
// coast-forward from the nearest anchor must reconstruct exactly the
// state full saving would have restored.
func TestTWHJSaveEvery(t *testing.T) {
	c := circuit.TreeMultiplier(5)
	for _, se := range []int{0, 1, 2, 3, 7, 64, 1 << 20} {
		twVerify(t, NewTWHJ(Options{TimeWarpSaveEvery: se, Paranoid: true}), c, 4, 54)
	}
}

// Adaptive throttling only moves the effective window; results are
// invariant, seeded from settle time when no window is given.
func TestTWHJAdaptive(t *testing.T) {
	c := circuit.TreeMultiplier(5)
	twVerify(t, NewTWHJ(Options{TimeWarpAdaptive: true, Paranoid: true}), c, 5, 55)
	twVerify(t, NewTWHJ(Options{TimeWarpAdaptive: true, TimeWarpWindow: 30, Paranoid: true}), c, 5, 56)
}

func TestTWHJWorkerIndependence(t *testing.T) {
	c := circuit.KoggeStone(10)
	waves := randomWaves(c, 5, 57)
	period := c.SettleTime() + 10
	stim := circuit.VectorWaves(c, waves, period)
	ref, err := NewTWHJ(Options{Workers: 1, Paranoid: true}).Run(c, stim)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		res, err := NewTWHJ(Options{Workers: workers, Paranoid: true}).Run(c, stim)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ok, diff := SameOutputs(ref, res); !ok {
			t.Fatalf("workers=%d: %s", workers, diff)
		}
		// Unlike the BSP engine, speculation here is schedule-dependent,
		// so only the committed outputs (checked above) and committed
		// event counts are deterministic — not the rollback counters.
		if res.TotalEvents != ref.TotalEvents {
			t.Fatalf("workers=%d: committed %d events, want %d", workers, res.TotalEvents, ref.TotalEvents)
		}
	}
}

func TestTWHJStatsPopulated(t *testing.T) {
	c := circuit.TreeMultiplier(6)
	waves := randomWaves(c, 6, 58)
	period := c.SettleTime() + 10
	res, err := NewTWHJ(Options{Workers: 4}).Run(c, circuit.VectorWaves(c, waves, period))
	if err != nil {
		t.Fatal(err)
	}
	if res.TimeWarp == (TWStats{}) {
		t.Fatal("no Time Warp stats recorded")
	}
	if res.TimeWarp.Rounds != 0 {
		t.Fatalf("barrier-free engine reported %d BSP rounds", res.TimeWarp.Rounds)
	}
	if res.TimeWarp.String() == "" {
		t.Fatal("empty stats string")
	}
}

func TestTWHJCommittedEventCountsMatchConservative(t *testing.T) {
	c := circuit.TreeMultiplier(4)
	stim := circuit.VectorWaves(c, randomWaves(c, 5, 59), c.SettleTime()+10)
	cons, err := NewSequential(Options{}).Run(c, stim)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := NewTWHJ(Options{Paranoid: true}).Run(c, stim)
	if err != nil {
		t.Fatal(err)
	}
	if cons.TotalEvents != opt.TotalEvents {
		t.Fatalf("committed %d, conservative %d", opt.TotalEvents, cons.TotalEvents)
	}
	for i := range cons.NodeEvents {
		if cons.NodeEvents[i] != opt.NodeEvents[i] {
			t.Fatalf("node %d: %d vs %d", i, opt.NodeEvents[i], cons.NodeEvents[i])
		}
	}
}

func TestTWHJEmptyStimulus(t *testing.T) {
	c := circuit.FullAdder()
	res, err := NewTWHJ(Options{}).Run(c, circuit.NewStimulus(c))
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalEvents != 0 {
		t.Fatalf("events = %d", res.TotalEvents)
	}
}

func TestTWHJDiscardOutputs(t *testing.T) {
	c := circuit.C17()
	stim := circuit.VectorWaves(c, randomWaves(c, 4, 60), c.SettleTime()+10)
	res, err := NewTWHJ(Options{DiscardOutputs: true}).Run(c, stim)
	if err != nil {
		t.Fatal(err)
	}
	for name, h := range res.Outputs {
		if len(h) != 0 {
			t.Fatalf("output %q recorded despite DiscardOutputs", name)
		}
	}
	if res.TotalEvents == 0 {
		t.Fatal("no events processed")
	}
}

func TestTWHJOptionValidation(t *testing.T) {
	c := circuit.FullAdder()
	stim := circuit.SingleWave(c, map[string]circuit.Value{"a": 1})
	for _, opts := range []Options{
		{Workers: -1},
		{TimeWarpWindow: -5},
		{TimeWarpSaveEvery: -1},
		{TimeWarpSaveEvery: 1 << 21},
	} {
		_, err := NewTWHJ(opts).Run(c, stim)
		var ee *EngineError
		if !errors.As(err, &ee) || ee.Reason != FailConfig {
			t.Fatalf("opts %+v: want FailConfig EngineError, got %v", opts, err)
		}
	}
}

// TestTWHJAllocFloor pins tw-hj's allocation floor on the benchmark's
// kogge64 configuration (koggestone-64, 2 waves, window 64, 2 workers):
// processing an event allocates nothing — log records rebuild their
// anti-messages and the per-port queues grow by doubling — so what
// remains is set-up and amortized slice growth (0.32 per committed
// event). Storing each step's sends in its record measured 1.98; the
// bound is 0.5.
func TestTWHJAllocFloor(t *testing.T) {
	c := circuit.KoggeStone(64)
	stim := circuit.RandomStimulus(c, 2, c.SettleTime()+10, 1)
	e := NewTWHJ(Options{Workers: 2, TimeWarpWindow: 64, DiscardOutputs: true})
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res, err := e.Run(c, stim)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	perEvent := float64(m1.Mallocs-m0.Mallocs) / float64(res.TotalEvents)
	t.Logf("%d allocations for %d committed events (%.3f each; %d rolled back)",
		m1.Mallocs-m0.Mallocs, res.TotalEvents, perEvent, res.TimeWarp.Undone)
	if perEvent > 0.5 {
		t.Fatalf("tw-hj allocates %.3f objects per committed event, want <= 0.5", perEvent)
	}
}

// TestTWHJAnnihilate checks the two ends of the cheap cancel: an
// anti-message whose twin is still pending removes it from its port
// queue, and one whose twin is neither pending nor logged is a protocol
// violation that panics (inside a run, the hj worker turns that into a
// FailPanic EngineError) instead of leaving a tombstone.
func TestTWHJAnnihilate(t *testing.T) {
	r := &twhjRun{}
	n := &twhjNode{lvt: -1}
	pos := twEvent{Time: 7, ID: 1<<40 | 3, Port: 1, Value: 1}
	n.absorb(r, pos)
	n.absorb(r, twEvent{Time: 9, ID: 1<<40 | 4, Port: 1})
	anti := pos
	anti.Anti = true
	n.absorb(r, anti)
	if n.pending[1].n != 1 || n.pending[1].front().ID != 1<<40|4 {
		t.Fatalf("cheap cancel left port 1 holding %d events", n.pending[1].n)
	}

	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "matches no pending or processed event") {
			t.Fatalf("unmatched anti-message: recovered %q, want the protocol-violation panic", msg)
		}
	}()
	n.absorb(r, anti)
}
