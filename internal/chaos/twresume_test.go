package chaos_test

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"hjdes/internal/chaos"
	"hjdes/internal/circuit"
	"hjdes/internal/core"
	"hjdes/internal/trace"
)

// vcdOf renders a result's waveform under a fixed module name, so
// byte-diffs compare only the committed signal history, never the
// engine label.
func vcdOf(t *testing.T, res *core.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteVCD(&buf, "resume", res.Outputs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTWResumeUnderRollbackStorm kills an optimistic run mid-flight —
// one induced panic while a rollback storm is raging — and requires the
// resilient wrapper to resume from the reached segment and finish with
// a waveform byte-identical to a clean, chaos-free run. Covers both the
// barrier ablation baseline and the barrier-free engine.
func TestTWResumeUnderRollbackStorm(t *testing.T) {
	// Deep enough that per-round logs exceed one entry even inside
	// single-wave segments — the barrier engine only injects rollbacks
	// on logs it could actually halve.
	c := circuit.KoggeStone(16)
	stim := circuit.RandomStimulus(c, 6, c.SettleTime()+10, 67)

	for _, name := range []string{"timewarp", "tw-hj"} {
		t.Run(name, func(t *testing.T) {
			clean, err := core.NewEngine(name, core.Options{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			cleanRes, err := clean.Run(c, stim)
			if err != nil {
				t.Fatalf("clean run: %v", err)
			}
			cleanVCD := vcdOf(t, cleanRes)

			store := core.NewCheckpointStore()
			inj := chaos.New(chaos.Config{Seed: 23, RollbackProb: 0.9, MaxRollbacks: 200})
			hooks := inj.Hooks()
			var killed atomic.Bool
			hooks.Task = func(worker int) {
				// Kill exactly once, and only after a segment checkpoint
				// exists, so the retry genuinely resumes rather than
				// restarting from scratch.
				if store.Count() >= 1 && killed.CompareAndSwap(false, true) {
					panic("chaos: induced mid-storm crash")
				}
			}
			// Three waves per segment: single-wave segments settle so fast
			// that barrier-engine logs never exceed one entry, starving the
			// storm of injection points.
			opts := core.Options{Workers: 4, CheckpointEvery: 3, Chaos: hooks}
			e, err := core.NewEngine(name, opts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.Resilient(nil, e, c, stim, core.ResilientConfig{
				Supervise: core.SuperviseConfig{Timeout: 30 * time.Second, Checkpoints: store},
				Retry:     core.RetryPolicy{Retries: 2, Backoff: time.Millisecond, Seed: 1},
				Options:   opts,
			})
			if err != nil {
				t.Fatalf("resilient run failed: %v", err)
			}
			if !killed.Load() {
				t.Fatal("induced crash never fired")
			}
			if inj.Stats.Rollbacks.Load() == 0 {
				t.Fatal("rollback storm never fired")
			}
			if res.Metrics["resilient.resumes"] < 1 {
				t.Fatalf("resilient.resumes = %d, want >= 1", res.Metrics["resilient.resumes"])
			}
			if got := vcdOf(t, res); !bytes.Equal(cleanVCD, got) {
				t.Fatalf("recovered VCD differs from clean run (%d vs %d bytes)", len(got), len(cleanVCD))
			}
			if ok, diff := core.SameOutputs(cleanRes, res); !ok {
				t.Fatalf("recovered run diverged: %s", diff)
			}
		})
	}
}

// TestTWHJCrossEngineResumeIntoSeq kills a segmented tw-hj run mid-way
// and hands its checkpoint store to the sequential engine: the seq
// resume must reproduce the full run bit-for-bit — the degradation path
// Resilient relies on when an optimistic engine keeps failing.
func TestTWHJCrossEngineResumeIntoSeq(t *testing.T) {
	c := circuit.KoggeStone(8)
	stim := circuit.RandomStimulus(c, 6, c.SettleTime()+10, 71)

	ref, err := core.NewSequential(core.Options{}).Run(c, stim)
	if err != nil {
		t.Fatal(err)
	}
	refVCD := vcdOf(t, ref)

	store := core.NewCheckpointStore()
	inj := chaos.New(chaos.Config{Seed: 29, RollbackProb: 0.8, MaxRollbacks: 100})
	hooks := inj.Hooks()
	var killed atomic.Bool
	hooks.Task = func(worker int) {
		if store.Count() >= 2 && killed.CompareAndSwap(false, true) {
			panic("chaos: induced mid-run crash")
		}
	}
	opts := core.Options{Workers: 4, CheckpointEvery: 1, Chaos: hooks}
	twhj, err := core.NewEngine("tw-hj", opts)
	if err != nil {
		t.Fatal(err)
	}
	_, err = twhj.(core.Checkpointer).RunFrom(nil, c, stim, store)
	if err == nil {
		if !killed.Load() {
			t.Skip("run finished before two segments checkpointed; nothing to resume")
		}
		t.Fatal("killed run reported success")
	}
	reached := store.Count()
	if reached < 2 {
		t.Fatalf("store reached %d segments, want >= 2", reached)
	}

	seqRes, err := core.NewSequential(core.Options{CheckpointEvery: 1}).(core.Checkpointer).RunFrom(nil, c, stim, store)
	if err != nil {
		t.Fatalf("seq resume from tw-hj checkpoint: %v", err)
	}
	if seqRes.Metrics["resilient.resumes"] != 1 {
		t.Fatalf("resilient.resumes = %d, want 1", seqRes.Metrics["resilient.resumes"])
	}
	if seqRes.Metrics["resilient.resume_cycle"] == 0 {
		t.Fatal("resume started from segment 0, not the reached segment")
	}
	if ok, diff := core.SameOutputs(ref, seqRes); !ok {
		t.Fatalf("seq resume diverged from reference: %s", diff)
	}
	if got := vcdOf(t, seqRes); !bytes.Equal(refVCD, got) {
		t.Fatalf("resumed VCD differs from clean run (%d vs %d bytes)", len(got), len(refVCD))
	}
}

// TestTWHJChaosSweepBitExact is the barrier-free Time Warp analogue of
// the lp-hj chaos sweep: 200 seeded runs rotating circuits and worker
// counts K ∈ {1, 2, 8, 64}, half under pure rollback storms, half with
// an induced mid-run panic recovered through checkpoint-resume — every
// completed run bit-compared against the sequential oracle with the
// Paranoid sub-GVT delivery assertion armed.
func TestTWHJChaosSweepBitExact(t *testing.T) {
	circuits := []*circuit.Circuit{
		circuit.FullAdder(),
		circuit.KoggeStone(8),
		circuit.KoggeStone(16),
		circuit.ParityChain(24),
	}
	workerCounts := []int{1, 2, 8, 64}

	base := runtime.NumGoroutine()
	runs, failures := 0, 0
	var storms, resumes int64
	for seed := int64(0); runs < 200; seed++ {
		c := circuits[int(seed)%len(circuits)]
		k := workerCounts[int(seed)%len(workerCounts)]
		stim := circuit.RandomStimulus(c, 4, c.SettleTime()+10, seed)
		want := seqReference(t, c, stim)

		cfg := chaos.Config{Seed: seed, RollbackProb: 0.6, MaxRollbacks: 50}
		if seed%2 == 1 {
			// Kill/restart arm: one induced task panic, recovered by the
			// resilient retry resuming from the reached segment.
			cfg.PanicProb = 0.002
			cfg.MaxPanics = 1
		}
		inj := chaos.New(cfg)
		opts := core.Options{Workers: k, Paranoid: true, CheckpointEvery: 2, Chaos: inj.Hooks()}
		eng, err := core.NewEngine("tw-hj", opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := core.Resilient(nil, eng, c, stim, core.ResilientConfig{
			Supervise: core.SuperviseConfig{Timeout: 30 * time.Second},
			Retry:     core.RetryPolicy{Retries: 2, Backoff: time.Millisecond, Seed: seed},
			Options:   opts,
		})
		runs++
		if err != nil {
			failures++
			continue
		}
		storms += inj.Stats.Rollbacks.Load()
		resumes += got.Metrics["resilient.resumes"] + got.Metrics["resilient.retries"]
		if ok, diff := core.SameOutputs(want, got); !ok {
			t.Fatalf("seed %d (%s k=%d): SILENTLY WRONG under chaos: %s", seed, c.Name, k, diff)
		}
		if got.TotalEvents != want.TotalEvents {
			t.Fatalf("seed %d (%s k=%d): committed %d events, oracle %d",
				seed, c.Name, k, got.TotalEvents, want.TotalEvents)
		}
	}
	settleGoroutines(t, base)
	t.Logf("%d tw-hj chaos runs: %d verified, %d failed loudly, %d injected rollbacks, %d retry/resumes",
		runs, runs-failures, failures, storms, resumes)
	if failures > runs/10 {
		t.Fatalf("%d/%d chaos runs failed; rollback storms and panic-resume should verify", failures, runs)
	}
	if storms == 0 {
		t.Fatal("rollback storms never fired")
	}
	if resumes == 0 {
		t.Fatal("panic chaos never exercised the retry/resume path")
	}
}
