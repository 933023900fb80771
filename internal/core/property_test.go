package core

import (
	"testing"
	"testing/quick"

	"hjdes/internal/circuit"
)

// TestPropertyRandomCircuitEnginesAgree is the central property test of
// the repository: for generated random circuit topologies and random
// stimuli, every engine configuration must (a) satisfy the combinational
// oracle and (b) agree exactly with the sequential reference on settled
// outputs and total event count.
func TestPropertyRandomCircuitEnginesAgree(t *testing.T) {
	type gen struct {
		Seed   int64
		Inputs uint8
		Gates  uint8
		Waves  uint8
	}
	f := func(g gen) bool {
		inputs := int(g.Inputs%6) + 2
		gates := int(g.Gates%80) + 10
		nWaves := int(g.Waves%4) + 1
		c := circuit.RandomDAG(circuit.RandomConfig{
			Inputs: inputs, Gates: gates, Outputs: 3, Seed: g.Seed,
		})
		waves := randomWaves(c, nWaves, g.Seed+1)
		period := c.SettleTime() + 10
		ref, err := RunAndVerify(NewSequential(Options{}), c, waves, period)
		if err != nil {
			t.Logf("seq reference failed on %s: %v", c.Name, err)
			return false
		}
		engines := []Engine{
			NewSequentialPQ(Options{}),
			NewHJ(Options{Workers: 3}),
			NewHJ(Options{Workers: 2, PerNodePQ: true, NoTempQueue: true}),
			NewHJ(Options{Workers: 3, NoAffinity: true}),
			NewHJ(Options{Workers: 3, SingleSteal: true}),
			NewGalois(Options{Workers: 2}),
			NewLPHJ(Options{Partitions: 1}),
			NewLPHJ(Options{Partitions: 2}),
			NewLPHJ(Options{Partitions: 3}),
			NewLPHJ(Options{Partitions: 8}),
		}
		for _, e := range engines {
			res, err := RunAndVerify(e, c, waves, period)
			if err != nil {
				t.Logf("%s failed on %s: %v", e.Name(), c.Name, err)
				return false
			}
			if ok, diff := SameOutputs(ref, res); !ok {
				t.Logf("%s disagrees on %s: %s", e.Name(), c.Name, diff)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPropertyEventCountScalesLinearlyWithWaves: each wave of the same
// stimulus shape contributes the same number of descendant events, so
// total events must scale exactly linearly in the wave count when waves
// are identical.
func TestPropertyEventCountScalesLinearlyWithWaves(t *testing.T) {
	c := circuit.KoggeStone(8)
	assign := circuit.KoggeStoneAssign(8, 170, 85)
	period := c.SettleTime() + 10
	counts := make([]int64, 0, 3)
	for _, n := range []int{1, 2, 4} {
		waves := make([]map[string]circuit.Value, n)
		for i := range waves {
			waves[i] = assign
		}
		res, err := NewSequential(Options{}).Run(c, circuit.VectorWaves(c, waves, period))
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, res.TotalEvents)
	}
	if counts[1] != 2*counts[0] || counts[2] != 4*counts[0] {
		t.Fatalf("event counts not linear in waves: %v", counts)
	}
}

// TestPropertyOutputsIndependentOfWorkers: for a fixed circuit and
// stimulus, the HJ engine's outputs must not depend on the worker count.
func TestPropertyOutputsIndependentOfWorkers(t *testing.T) {
	c := circuit.TreeMultiplier(4)
	waves := randomWaves(c, 4, 5)
	period := c.SettleTime() + 10
	stim := circuit.VectorWaves(c, waves, period)
	var ref *Result
	for _, workers := range []int{1, 2, 3, 5, 8} {
		res, err := NewHJ(Options{Workers: workers}).Run(c, stim)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if ok, diff := SameOutputs(ref, res); !ok {
			t.Fatalf("workers=%d changed outputs: %s", res.Workers, diff)
		}
	}
}

// TestPropertySettleMatchesOracleEverywhere: the settled value of every
// output after the final wave equals direct levelized evaluation, for
// all prefix-adder families.
func TestPropertySettleMatchesOracleEverywhere(t *testing.T) {
	f := func(a, b uint16) bool {
		for _, c := range []*circuit.Circuit{circuit.KoggeStone(16), circuit.BrentKung(16)} {
			assign := circuit.PrefixAdderAssign(16, uint64(a), uint64(b))
			res, err := NewHJ(Options{Workers: 2}).Run(c, circuit.SingleWave(c, assign))
			if err != nil {
				return false
			}
			outs := map[string]circuit.Value{}
			for name, h := range res.Outputs {
				if tv, ok := ValueAt(h, c.SettleTime()+1); ok {
					outs[name] = tv.Value
				}
			}
			if circuit.PrefixAdderSum(16, outs) != uint64(a)+uint64(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestChangedStimulusSameSettledOutputs: the change-only stimulus
// encoding carries fewer events but must settle every output to the same
// value as the full encoding, on every engine, per the oracle.
func TestChangedStimulusSameSettledOutputs(t *testing.T) {
	c := circuit.C17()
	waves := randomWaves(c, 10, 23)
	period := c.SettleTime() + 10
	stim := circuit.VectorWavesChanged(c, waves, period)
	full := circuit.VectorWaves(c, waves, period)
	if stim.NumEvents() >= full.NumEvents() {
		t.Fatalf("change-only encoding not smaller: %d vs %d", stim.NumEvents(), full.NumEvents())
	}
	for _, e := range testEngines(3) {
		res, err := e.Run(c, stim)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if err := VerifyAgainstOracle(c, waves, period, res); err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
	}
}

// TestPropertyLPPartitionSweep: the LP engine must agree exactly with
// the sequential reference on the paper's circuit families and on random
// DAGs, at partition counts spanning the degenerate single-LP case,
// small counts, and counts exceeding the worker parallelism — and every
// run must report a finite null-message ratio (termination without
// deadlock or a null storm).
func TestPropertyLPPartitionSweep(t *testing.T) {
	circuits := []*circuit.Circuit{
		circuit.KoggeStone(16),
		circuit.TreeMultiplier(6),
		circuit.RandomDAG(circuit.RandomConfig{Inputs: 6, Gates: 100, Outputs: 5, Seed: 77}),
	}
	for _, c := range circuits {
		waves := randomWaves(c, 5, 7)
		period := c.SettleTime() + 10
		ref, err := RunAndVerify(NewSequential(Options{}), c, waves, period)
		if err != nil {
			t.Fatalf("%s: sequential reference: %v", c.Name, err)
		}
		for _, k := range []int{1, 2, 3, 8} {
			// Workers below the partition count exercises K > workers.
			e := NewLPHJ(Options{Partitions: k, Workers: 2, Paranoid: true})
			res, err := RunAndVerify(e, c, waves, period)
			if err != nil {
				t.Fatalf("%s k=%d: %v", c.Name, k, err)
			}
			if ok, diff := SameOutputs(ref, res); !ok {
				t.Fatalf("%s k=%d disagrees with seq: %s", c.Name, k, diff)
			}
			s := res.LP
			if s.Partitions != k {
				t.Fatalf("%s k=%d: stats report %d partitions", c.Name, k, s.Partitions)
			}
			if r := s.NullRatio(); r < 0 || r >= 1 {
				t.Fatalf("%s k=%d: null ratio %f not in [0,1)", c.Name, k, r)
			}
			if s.NullMsgs > 10*s.EventMsgs+1000 {
				t.Fatalf("%s k=%d: null storm: %d nulls vs %d events", c.Name, k, s.NullMsgs, s.EventMsgs)
			}
			if k == 1 && (s.CutEdges != 0 || s.EventMsgs != 0 || s.NullMsgs != 0) {
				t.Fatalf("%s k=1 reported cross traffic: %+v", c.Name, s)
			}
		}
	}
}

func TestC17AllEngines(t *testing.T) {
	verifyAllEngines(t, circuit.C17(), 12, 24)
}

func TestBrentKungAllEngines(t *testing.T) {
	verifyAllEngines(t, circuit.BrentKung(16), 6, 21)
}

func TestArrayMultiplierAllEngines(t *testing.T) {
	verifyAllEngines(t, circuit.ArrayMultiplier(4), 5, 25)
}

func TestButterflyAllEngines(t *testing.T) {
	verifyAllEngines(t, circuit.Butterfly(4), 6, 22)
}
