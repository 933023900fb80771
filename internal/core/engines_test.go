package core

import (
	"fmt"
	"math/rand"
	"testing"

	"hjdes/internal/circuit"
)

// testEngines returns every engine configuration under test, with the
// causality assertion armed: any per-port timestamp regression panics.
func testEngines(workers int) []Engine {
	p := Options{Paranoid: true}
	return []Engine{
		NewSequential(p),
		NewSequentialPQ(p),
		NewHJ(Options{Workers: workers, Paranoid: true}),
		NewHJ(Options{Workers: workers, Paranoid: true, PerNodePQ: true}),
		NewHJ(Options{Workers: workers, Paranoid: true, PerNodeLocks: true}),
		NewHJ(Options{Workers: workers, Paranoid: true, NoTempQueue: true}),
		NewHJ(Options{Workers: workers, Paranoid: true, NaiveRespawn: true}),
		NewHJ(Options{Workers: workers, Paranoid: true, GlobalIsolated: true}),
		NewHJ(Options{Workers: workers, Paranoid: true, MutexLocks: true}),
		NewGalois(Options{Workers: workers, Paranoid: true}),
		NewGaloisFine(Options{Workers: workers, Paranoid: true}),
		NewOrdered(Options{Workers: workers, Paranoid: true}),
		NewLPHJ(Options{Workers: workers, Paranoid: true}),
		NewLPHJ(Options{Workers: workers, Partitions: 3, Paranoid: true}),
		NewLPHJ(Options{Workers: 2, Partitions: 16, Paranoid: true}),
		NewLPHJ(Options{Workers: workers, Partitions: 5, Paranoid: true, NoAffinity: true}),
		NewTWHJ(Options{Workers: workers, Paranoid: true}),
		NewTWHJ(Options{Workers: workers, Paranoid: true, TimeWarpWindow: 40, TimeWarpSaveEvery: 4}),
		NewTWHJ(Options{Workers: workers, Paranoid: true, TimeWarpAdaptive: true, NoAffinity: true}),
	}
}

// randomWaves builds n random input assignments for circuit c.
func randomWaves(c *circuit.Circuit, n int, seed int64) []map[string]circuit.Value {
	rng := rand.New(rand.NewSource(seed))
	waves := make([]map[string]circuit.Value, n)
	for w := range waves {
		m := make(map[string]circuit.Value)
		for _, name := range c.InputNames() {
			m[name] = circuit.Value(rng.Intn(2))
		}
		waves[w] = m
	}
	return waves
}

// verifyAllEngines runs every engine on the circuit with random waves,
// checks each against the combinational oracle, and checks all results
// agree with the sequential reference.
func verifyAllEngines(t *testing.T, c *circuit.Circuit, nWaves int, seed int64) {
	t.Helper()
	waves := randomWaves(c, nWaves, seed)
	period := c.SettleTime() + 10

	ref, err := RunAndVerify(NewSequential(Options{}), c, waves, period)
	if err != nil {
		t.Fatalf("%s: sequential reference: %v", c.Name, err)
	}
	if ref.TotalEvents == 0 {
		t.Fatalf("%s: reference processed no events", c.Name)
	}
	check := func(name string, e Engine) {
		t.Run(name, func(t *testing.T) {
			res, err := RunAndVerify(e, c, waves, period)
			if err != nil {
				t.Fatalf("%s on %s: %v", e.Name(), c.Name, err)
			}
			if ok, diff := SameOutputs(ref, res); !ok {
				t.Fatalf("%s disagrees with sequential reference: %s", e.Name(), diff)
			}
		})
	}
	for _, e := range testEngines(4) {
		check(e.Name(), e)
	}
	// The registry alias "lp" builds the lp-hj engine; its subtests
	// resolve it by name, with and without an explicit partition count.
	for _, o := range []Options{{Workers: 4, Paranoid: true}, {Partitions: 3, Paranoid: true}} {
		e, err := NewEngine("lp", o)
		if err != nil {
			t.Fatal(err)
		}
		check("lp", e)
	}
}

func TestFullAdderAllEngines(t *testing.T) {
	verifyAllEngines(t, circuit.FullAdder(), 16, 1)
}

func TestMux2AllEngines(t *testing.T) {
	verifyAllEngines(t, circuit.Mux2(), 12, 2)
}

func TestParityChainAllEngines(t *testing.T) {
	verifyAllEngines(t, circuit.ParityChain(24), 6, 3)
}

func TestFanoutTreeAllEngines(t *testing.T) {
	verifyAllEngines(t, circuit.FanoutTree(5), 6, 4)
}

func TestKoggeStone16AllEngines(t *testing.T) {
	verifyAllEngines(t, circuit.KoggeStone(16), 8, 5)
}

func TestTreeMultiplier6AllEngines(t *testing.T) {
	verifyAllEngines(t, circuit.TreeMultiplier(6), 4, 6)
}

func TestRandomCircuitsAllEngines(t *testing.T) {
	for _, seed := range []int64{11, 22, 33} {
		c := circuit.RandomDAG(circuit.RandomConfig{Inputs: 8, Gates: 120, Outputs: 6, Seed: seed})
		verifyAllEngines(t, c, 5, seed)
	}
}

// TestAdderAddsViaDES is the end-to-end functional check: drive the
// Kogge-Stone adder through the event-driven simulator and read the sum.
func TestAdderAddsViaDES(t *testing.T) {
	const width = 12
	c := circuit.KoggeStone(width)
	rng := rand.New(rand.NewSource(7))
	period := c.SettleTime() + 10
	var waves []map[string]circuit.Value
	var operands [][2]uint64
	for i := 0; i < 10; i++ {
		a := rng.Uint64() & ((1 << width) - 1)
		b := rng.Uint64() & ((1 << width) - 1)
		waves = append(waves, circuit.KoggeStoneAssign(width, a, b))
		operands = append(operands, [2]uint64{a, b})
	}
	for _, e := range []Engine{NewSequential(Options{}), NewHJ(Options{Workers: 4})} {
		stim := circuit.VectorWaves(c, waves, period)
		res, err := e.Run(c, stim)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		for w, ops := range operands {
			deadline := int64(w+1) * period
			outs := map[string]circuit.Value{}
			for name, h := range res.Outputs {
				if tv, ok := ValueAt(h, deadline); ok {
					outs[name] = tv.Value
				}
			}
			if got := circuit.KoggeStoneSum(width, outs); got != ops[0]+ops[1] {
				t.Fatalf("%s wave %d: %d+%d = %d", e.Name(), w, ops[0], ops[1], got)
			}
		}
	}
}

// TestMultiplierMultipliesViaDES drives the tree multiplier end to end.
func TestMultiplierMultipliesViaDES(t *testing.T) {
	const bits = 6
	c := circuit.TreeMultiplier(bits)
	period := c.SettleTime() + 10
	rng := rand.New(rand.NewSource(8))
	var waves []map[string]circuit.Value
	var operands [][2]uint64
	for i := 0; i < 8; i++ {
		a := rng.Uint64() & ((1 << bits) - 1)
		b := rng.Uint64() & ((1 << bits) - 1)
		waves = append(waves, circuit.TreeMultiplierAssign(bits, a, b))
		operands = append(operands, [2]uint64{a, b})
	}
	stim := circuit.VectorWaves(c, waves, period)
	res, err := NewHJ(Options{Workers: 4}).Run(c, stim)
	if err != nil {
		t.Fatal(err)
	}
	for w, ops := range operands {
		deadline := int64(w+1) * period
		outs := map[string]circuit.Value{}
		for name, h := range res.Outputs {
			if tv, ok := ValueAt(h, deadline); ok {
				outs[name] = tv.Value
			}
		}
		if got := circuit.TreeMultiplierProduct(bits, outs); got != ops[0]*ops[1] {
			t.Fatalf("wave %d: %d*%d = %d", w, ops[0], ops[1], got)
		}
	}
}

func TestEventCountsAgreeAcrossEngines(t *testing.T) {
	c := circuit.KoggeStone(8)
	waves := randomWaves(c, 5, 9)
	period := c.SettleTime() + 10
	stim := circuit.VectorWaves(c, waves, period)
	var counts []int64
	for _, e := range testEngines(3) {
		res, err := e.Run(c, stim)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		counts = append(counts, res.TotalEvents)
	}
	for i, n := range counts {
		if n != counts[0] {
			t.Fatalf("engine %d processed %d events, engine 0 processed %d", i, n, counts[0])
		}
	}
}

func TestEmptyStimulusTerminates(t *testing.T) {
	c := circuit.FullAdder()
	stim := circuit.NewStimulus(c) // no transitions at all
	for _, e := range testEngines(2) {
		res, err := e.Run(c, stim)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if res.TotalEvents != 0 {
			t.Fatalf("%s: %d events from empty stimulus", e.Name(), res.TotalEvents)
		}
	}
}

func TestStimulusMismatchRejected(t *testing.T) {
	c := circuit.FullAdder()
	bad := &circuit.Stimulus{ByInput: make([][]circuit.Transition, 1)}
	for _, e := range testEngines(2) {
		if _, err := e.Run(c, bad); err == nil {
			t.Fatalf("%s accepted a mismatched stimulus", e.Name())
		}
	}
}

// TestOutputHistoryMonotone checks the causality invariant observable at
// the outputs: event timestamps never decrease.
func TestOutputHistoryMonotone(t *testing.T) {
	c := circuit.TreeMultiplier(4)
	waves := randomWaves(c, 6, 10)
	stim := circuit.VectorWaves(c, waves, c.SettleTime()+10)
	for _, e := range testEngines(4) {
		res, err := e.Run(c, stim)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		for name, h := range res.Outputs {
			for i := 1; i < len(h); i++ {
				if h[i].Time < h[i-1].Time {
					t.Fatalf("%s: output %q timestamps decrease at %d: %v -> %v",
						e.Name(), name, i, h[i-1], h[i])
				}
			}
		}
	}
}

func TestDiscardOutputs(t *testing.T) {
	c := circuit.FullAdder()
	stim := circuit.VectorWaves(c, randomWaves(c, 4, 11), c.SettleTime()+10)
	res, err := NewSequential(Options{DiscardOutputs: true}).Run(c, stim)
	if err != nil {
		t.Fatal(err)
	}
	for name, h := range res.Outputs {
		if len(h) != 0 {
			t.Fatalf("output %q recorded %d samples with DiscardOutputs", name, len(h))
		}
	}
	if res.TotalEvents == 0 {
		t.Fatal("DiscardOutputs must not skip event processing")
	}
}

func TestHJStatsPopulated(t *testing.T) {
	c := circuit.KoggeStone(8)
	stim := circuit.VectorWaves(c, randomWaves(c, 4, 12), c.SettleTime()+10)
	res, err := NewHJ(Options{Workers: 4}).Run(c, stim)
	if err != nil {
		t.Fatal(err)
	}
	if res.HJ.Spawns == 0 || res.HJ.LockAcquires == 0 {
		t.Fatalf("HJ stats empty: %+v", res.HJ)
	}
	if res.Workers != 4 {
		t.Fatalf("Workers = %d, want 4", res.Workers)
	}
}

func TestResultEngineNamesMatch(t *testing.T) {
	c := circuit.FullAdder()
	stim := circuit.SingleWave(c, map[string]circuit.Value{"a": 1})
	for _, e := range testEngines(2) {
		res, err := e.Run(c, stim)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if res.Engine != e.Name() {
			t.Errorf("Result.Engine = %q, engine Name() = %q", res.Engine, e.Name())
		}
	}
}

func TestGaloisStatsPopulated(t *testing.T) {
	c := circuit.KoggeStone(8)
	stim := circuit.VectorWaves(c, randomWaves(c, 4, 13), c.SettleTime()+10)
	res, err := NewGalois(Options{Workers: 4}).Run(c, stim)
	if err != nil {
		t.Fatal(err)
	}
	if res.Galois.Committed == 0 {
		t.Fatalf("Galois stats empty: %+v", res.Galois)
	}
}

func TestEngineNames(t *testing.T) {
	want := map[string]Engine{
		"seq":            NewSequential(Options{}),
		"seq-pq":         NewSequentialPQ(Options{}),
		"hj":             NewHJ(Options{}),
		"hj-pq":          NewHJ(Options{PerNodePQ: true}),
		"hj-nodelocks":   NewHJ(Options{PerNodeLocks: true}),
		"hj-notemp":      NewHJ(Options{NoTempQueue: true}),
		"hj-naive":       NewHJ(Options{NaiveRespawn: true}),
		"hj-isolated":    NewHJ(Options{GlobalIsolated: true}),
		"hj-mutex":       NewHJ(Options{MutexLocks: true}),
		"hj-noaff":       NewHJ(Options{NoAffinity: true}),
		"hj-steal1":      NewHJ(Options{SingleSteal: true}),
		"galois":         NewGalois(Options{}),
		"galois-fine":    NewGaloisFine(Options{}),
		"galois-ordered": NewOrdered(Options{}),
		"lp-hj":          NewLPHJ(Options{}),
	}
	for name, e := range want {
		if e.Name() != name {
			t.Errorf("Name() = %q, want %q", e.Name(), name)
		}
	}
}

func TestResultStringAndThroughput(t *testing.T) {
	c := circuit.FullAdder()
	stim := circuit.VectorWaves(c, randomWaves(c, 2, 14), c.SettleTime()+10)
	res, err := NewSequential(Options{}).Run(c, stim)
	if err != nil {
		t.Fatal(err)
	}
	if res.String() == "" {
		t.Fatal("empty Result.String")
	}
	if res.EventsPerSec() <= 0 {
		t.Fatalf("EventsPerSec = %v", res.EventsPerSec())
	}
	zero := &Result{}
	if zero.EventsPerSec() != 0 {
		t.Fatal("zero result should report 0 throughput")
	}
}

func TestSettledValues(t *testing.T) {
	h := []TimedValue{{1, 0}, {1, 1}, {3, 0}, {3, 0}, {5, 1}}
	s := SettledValues(h)
	want := []TimedValue{{1, 1}, {3, 0}, {5, 1}}
	if len(s) != len(want) {
		t.Fatalf("SettledValues = %v", s)
	}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("SettledValues[%d] = %v, want %v", i, s[i], want[i])
		}
	}
	if SettledValues(nil) != nil {
		t.Fatal("SettledValues(nil) should be nil")
	}
}

func TestValueAt(t *testing.T) {
	h := []TimedValue{{2, 1}, {5, 0}, {9, 1}}
	for _, tc := range []struct {
		t    int64
		ok   bool
		want circuit.Value
	}{
		{1, false, 0}, {2, true, 1}, {4, true, 1}, {5, true, 0}, {100, true, 1},
	} {
		got, ok := ValueAt(h, tc.t)
		if ok != tc.ok || (ok && got.Value != tc.want) {
			t.Errorf("ValueAt(%d) = %v, %v", tc.t, got, ok)
		}
	}
}

func TestSameOutputsDetectsDifferences(t *testing.T) {
	mk := func(events int64, outs map[string][]TimedValue) *Result {
		return &Result{Engine: "x", TotalEvents: events, Outputs: outs}
	}
	a := mk(5, map[string][]TimedValue{"y": {{1, 0}}})
	if ok, _ := SameOutputs(a, mk(5, map[string][]TimedValue{"y": {{1, 0}}})); !ok {
		t.Fatal("identical results reported different")
	}
	if ok, msg := SameOutputs(a, mk(6, map[string][]TimedValue{"y": {{1, 0}}})); ok || msg == "" {
		t.Fatal("event count difference missed")
	}
	if ok, _ := SameOutputs(a, mk(5, map[string][]TimedValue{"z": {{1, 0}}})); ok {
		t.Fatal("output name difference missed")
	}
	if ok, _ := SameOutputs(a, mk(5, map[string][]TimedValue{"y": {{1, 1}}})); ok {
		t.Fatal("value difference missed")
	}
	if ok, _ := SameOutputs(a, mk(5, map[string][]TimedValue{"y": {{1, 0}, {2, 1}}})); ok {
		t.Fatal("length difference missed")
	}
}

func TestVerifyRejectsShortPeriod(t *testing.T) {
	c := circuit.FullAdder()
	waves := randomWaves(c, 2, 15)
	if _, err := RunAndVerify(NewSequential(Options{}), c, waves, 1); err == nil {
		t.Fatal("RunAndVerify accepted a period shorter than settle time")
	}
}

func TestWorkerSweepHJ(t *testing.T) {
	c := circuit.KoggeStone(8)
	waves := randomWaves(c, 4, 16)
	period := c.SettleTime() + 10
	for workers := 1; workers <= 8; workers *= 2 {
		res, err := RunAndVerify(NewHJ(Options{Workers: workers}), c, waves, period)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Workers != workers {
			t.Fatalf("Workers = %d, want %d", res.Workers, workers)
		}
	}
}

func TestRepeatedRunsSameEngine(t *testing.T) {
	c := circuit.TreeMultiplier(4)
	waves := randomWaves(c, 3, 17)
	period := c.SettleTime() + 10
	e := NewHJ(Options{Workers: 4})
	var first *Result
	for i := 0; i < 5; i++ {
		res, err := RunAndVerify(e, c, waves, period)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if first == nil {
			first = res
			continue
		}
		if ok, diff := SameOutputs(first, res); !ok {
			t.Fatalf("run %d differs: %s", i, diff)
		}
	}
}

func ExampleNewSequential() {
	c := circuit.FullAdder()
	stim := circuit.SingleWave(c, map[string]circuit.Value{"a": 1, "b": 1, "cin": 0})
	res, err := NewSequential(Options{}).Run(c, stim)
	if err != nil {
		panic(err)
	}
	sum, _ := ValueAt(res.Outputs["sum"], c.SettleTime())
	cout, _ := ValueAt(res.Outputs["cout"], c.SettleTime())
	fmt.Printf("1+1+0 = sum %s carry %s\n", sum.Value, cout.Value)
	// Output: 1+1+0 = sum 0 carry 1
}
