package chaos_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"hjdes/internal/chaos"
	"hjdes/internal/circuit"
	"hjdes/internal/core"
	"hjdes/internal/lp"
)

// seqReference runs the sequential oracle engine once for a circuit and
// stimulus; every chaos run is compared against it bit for bit.
func seqReference(t *testing.T, c *circuit.Circuit, stim *circuit.Stimulus) *core.Result {
	t.Helper()
	res, err := core.NewSequential(core.Options{}).Run(c, stim)
	if err != nil {
		t.Fatalf("seq reference: %v", err)
	}
	return res
}

func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak after chaos run\n%s", buf)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestChaosNeverSilentlyWrong is the headline property test: 200 seeded
// chaos runs across circuits and partition counts.
// Every run must either verify bit-exactly against the sequential oracle
// or fail loudly with a structured error. Hanging is impossible by
// construction (Supervise timeout) and silent corruption fails the
// comparison.
func TestChaosNeverSilentlyWrong(t *testing.T) {
	circuits := []*circuit.Circuit{
		circuit.FullAdder(),
		circuit.KoggeStone(8),
		circuit.KoggeStone(16),
		circuit.ParityChain(24),
	}
	partitions := []int{2, 3, 4}

	base := runtime.NumGoroutine()
	runs, failures := 0, 0
	for seed := int64(0); runs < 200; seed++ {
		c := circuits[int(seed)%len(circuits)]
		k := partitions[int(seed)%len(partitions)]
		stim := circuit.RandomStimulus(c, 4, c.SettleTime()+10, seed)
		want := seqReference(t, c, stim)

		inj := chaos.New(chaos.Config{
			Seed:        seed,
			DelayProb:   0.4,
			DupNullProb: 0.3,
			KillProb:    0.05,
			MaxKills:    2,
		})
		eng := core.NewLPHJ(core.Options{
			Partitions: k,
			Paranoid:   true,
			Chaos:      inj.Hooks(),
		})

		got, err := core.Supervise(context.Background(), eng, c, stim,
			core.SuperviseConfig{Timeout: 30 * time.Second, StallTimeout: 10 * time.Second})
		runs++
		if err != nil {
			// A loud, structured failure is acceptable; silence is not.
			var ee *core.EngineError
			if !errors.As(err, &ee) {
				t.Fatalf("seed %d (%s k=%d): unstructured failure: %v",
					seed, c.Name, k, err)
			}
			failures++
			continue
		}
		if ok, diff := core.SameOutputs(want, got); !ok {
			t.Fatalf("seed %d (%s k=%d): SILENTLY WRONG under chaos %s: %s",
				seed, c.Name, k, inj.Stats.String(), diff)
		}
	}
	settleGoroutines(t, base)
	t.Logf("%d chaos runs: %d verified, %d failed loudly", runs, runs-failures, failures)
	// Delay/dup/kill faults are all survivable by design; a high failure
	// rate means the injector broke an invariant it promised to keep.
	if failures > runs/10 {
		t.Fatalf("%d/%d chaos runs failed; these fault classes should verify", failures, runs)
	}
}

// TestChaosDeadlockQuiesceLPHJ induces the classic conservative-PDES
// deadlock — null messages suppressed on every edge — where nothing
// ever blocks: the starved LPs yield with empty mailboxes, the runtime
// quiesces, and collection detects the deadlock immediately. The engine
// must report a structured FailStall with per-LP diagnostics, without
// waiting for any stall window.
func TestChaosDeadlockQuiesceLPHJ(t *testing.T) {
	c := circuit.KoggeStone(16)
	stim := circuit.RandomStimulus(c, 4, c.SettleTime()+10, 9)
	base := runtime.NumGoroutine()

	inj := chaos.New(chaos.Config{Seed: 9, DropNulls: true})
	eng := core.NewLPHJ(core.Options{
		Partitions: 4, Paranoid: true, Chaos: inj.Hooks(),
	})

	start := time.Now()
	_, err := eng.Run(c, stim)
	var ee *core.EngineError
	if !errors.As(err, &ee) {
		t.Fatalf("deadlocked run returned %v, want *EngineError", err)
	}
	if ee.Reason != core.FailStall {
		t.Fatalf("reason = %q, want %q (err: %v)", ee.Reason, core.FailStall, err)
	}
	var de *lp.DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("stall does not wrap *lp.DeadlockError: %v", err)
	}
	// Quiescence detection is immediate; no watchdog window is involved.
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("quiescence detection took %v", elapsed)
	}
	for lpID := 0; lpID < 4; lpID++ {
		if !strings.Contains(ee.Diag, fmt.Sprintf("lp %d:", lpID)) {
			t.Fatalf("diagnostics missing lp %d:\n%s", lpID, ee.Diag)
		}
	}
	if !strings.Contains(ee.Diag, "blocked-recv") {
		t.Fatalf("diagnostics show no LP waiting for input:\n%s", ee.Diag)
	}
	if inj.Stats.DroppedNulls.Load() == 0 {
		t.Fatal("injector dropped no nulls; the deadlock was not induced")
	}
	settleGoroutines(t, base)
}

// TestChaosSpecRoundTrip keeps the -chaos flag grammar honest: every
// message-plane key parses, a spec may mix the planes, and bad values
// and unknown keys are rejected. TestParseSchedSpecRoundTrip covers the
// scheduler-plane keys.
func TestChaosSpecRoundTrip(t *testing.T) {
	cfg, err := chaos.ParseSpec("seed=42,delay=0.25,dup=0.1,kill=0.05,maxkills=3,maxheld=8,dropnulls")
	if err != nil {
		t.Fatal(err)
	}
	if cfg != (chaos.Config{Seed: 42, DelayProb: 0.25, DupNullProb: 0.1, KillProb: 0.05,
		MaxKills: 3, MaxHeld: 8, DropNulls: true}) {
		t.Fatalf("message-plane spec parsed as %+v", cfg)
	}
	cfg, err = chaos.ParseSpec("seed=3,kill=1,maxkills=2,delay=0.2,panic=1,maxpanics=1")
	if err != nil {
		t.Fatal(err)
	}
	if cfg != (chaos.Config{Seed: 3, KillProb: 1, MaxKills: 2, DelayProb: 0.2, PanicProb: 1, MaxPanics: 1}) {
		t.Fatalf("mixed-plane spec parsed as %+v", cfg)
	}
	if cfg, err := chaos.ParseSpec(""); err != nil || cfg != (chaos.Config{}) {
		t.Fatalf("empty spec: cfg=%+v err=%v", cfg, err)
	}
	for _, bad := range []string{"delay=nope", "panic=lots", "dropnulls=maybe", "unknown=1", "frobnicate=1"} {
		if _, err := chaos.ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

// TestChaosDeterministicReplay pins the package's determinism contract:
// fault decisions are a pure function of (seed, the LP's own send
// sequence). Feeding an identical scripted sequence through two
// same-seeded interceptors must yield an identical decision trace. (A
// full engine run is NOT trace-reproducible — null-message traffic is
// timing-dependent — which is exactly why the contract is stated per
// send sequence, not per wall-clock run.)
func TestChaosDeterministicReplay(t *testing.T) {
	script := func(ic lp.Interceptor) string {
		var sb strings.Builder
		dump := func(tag string, ds []lp.Delivery) {
			fmt.Fprintf(&sb, "%s:", tag)
			for _, d := range ds {
				fmt.Fprintf(&sb, " ->%d kind=%d node=%d t=%d", d.To, d.M.Kind, d.M.Node, d.M.Time)
			}
			sb.WriteByte('\n')
		}
		for i := 0; i < 200; i++ {
			fmt.Fprintf(&sb, "crash=%v\n", ic.CrashPoint(0))
			m := lp.Msg{Kind: lp.MsgEvent, Src: 0, Node: int32(i % 7), Port: int32(i % 2), Time: int64(i)}
			if i%5 == 0 {
				m.Kind = lp.MsgNullEdge
			}
			dump("send", ic.OnSend(0, int32(1+i%3), m))
			if i%17 == 0 {
				dump("block", ic.OnBlock(0))
			}
		}
		dump("final-block", ic.OnBlock(0))
		return sb.String()
	}
	cfg := chaos.Config{Seed: 17, DelayProb: 0.5, DupNullProb: 0.4, KillProb: 0.1, MaxKills: 2}
	t1 := script(chaos.New(cfg).Hooks().Intercept(4))
	t2 := script(chaos.New(cfg).Hooks().Intercept(4))
	if t1 != t2 {
		t.Fatalf("same seed, same send sequence, different decisions:\n--- run 1 ---\n%s--- run 2 ---\n%s", t1, t2)
	}
	// A different LP id must draw from an independent stream.
	if t3 := script(chaos.New(cfg).Hooks().Intercept(5)); t3 == t1 {
		t.Fatal("different LP ids produced identical fault streams")
	}
}

// TestLPHJChaosSweepBitExact is the high-K twin of
// TestChaosNeverSilentlyWrong, sweeping partition counts up to 64, far
// above the worker count: 200 seeded runs under message chaos — delays,
// duplicated nulls, and kill-and-restart from in-run checkpoints — each
// either bit-exact against the sequential oracle or a loud structured
// failure.
func TestLPHJChaosSweepBitExact(t *testing.T) {
	circuits := []*circuit.Circuit{
		circuit.FullAdder(),
		circuit.KoggeStone(8),
		circuit.KoggeStone(16),
		circuit.ParityChain(24),
	}
	partitions := []int{1, 2, 8, 64}

	base := runtime.NumGoroutine()
	runs, failures, restarts := 0, 0, int64(0)
	for seed := int64(0); runs < 200; seed++ {
		c := circuits[int(seed)%len(circuits)]
		k := partitions[int(seed)%len(partitions)]
		stim := circuit.RandomStimulus(c, 4, c.SettleTime()+10, seed)
		want := seqReference(t, c, stim)

		inj := chaos.New(chaos.Config{
			Seed:        seed,
			DelayProb:   0.4,
			DupNullProb: 0.3,
			KillProb:    0.05,
			MaxKills:    2,
		})
		eng := core.NewLPHJ(core.Options{
			Partitions: k,
			Workers:    4,
			Paranoid:   true,
			Chaos:      inj.Hooks(),
		})

		got, err := core.Supervise(context.Background(), eng, c, stim,
			core.SuperviseConfig{Timeout: 30 * time.Second, StallTimeout: 10 * time.Second})
		runs++
		if err != nil {
			var ee *core.EngineError
			if !errors.As(err, &ee) {
				t.Fatalf("seed %d (%s k=%d): unstructured failure: %v", seed, c.Name, k, err)
			}
			failures++
			continue
		}
		restarts += got.LP.Restarts
		if ok, diff := core.SameOutputs(want, got); !ok {
			t.Fatalf("seed %d (%s k=%d): SILENTLY WRONG under chaos %s: %s",
				seed, c.Name, k, inj.Stats.String(), diff)
		}
	}
	settleGoroutines(t, base)
	t.Logf("%d lp-hj chaos runs: %d verified, %d failed loudly, %d kill-and-restarts survived",
		runs, runs-failures, failures, restarts)
	if failures > runs/10 {
		t.Fatalf("%d/%d chaos runs failed; these fault classes should verify", failures, runs)
	}
	if restarts == 0 {
		t.Fatal("kill chaos never exercised the checkpoint restart path")
	}
}

// TestMixedPlaneChaosLPHJ drives both fault planes through one injector
// on lp-hj: the first task body panics (scheduler plane), and LPs have
// event messages delayed and are killed and restarted from in-run
// checkpoints (message plane). The resilient retry must finish
// bit-exact against the sequential oracle with both planes' faults
// visible.
func TestMixedPlaneChaosLPHJ(t *testing.T) {
	c := circuit.KoggeStone(16)
	stim := circuit.RandomStimulus(c, 6, c.SettleTime()+10, 61)
	want := seqReference(t, c, stim)

	cfg, err := chaos.ParseSpec("seed=7,kill=1,maxkills=2,delay=0.2,panic=1,maxpanics=1")
	if err != nil {
		t.Fatal(err)
	}
	inj := chaos.New(cfg)
	opts := core.Options{Workers: 2, Partitions: 4, Paranoid: true, CheckpointEvery: 1, Chaos: inj.Hooks()}
	eng, err := core.NewEngine("lp-hj", opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.Resilient(context.Background(), eng, c, stim, core.ResilientConfig{
		Supervise: core.SuperviseConfig{Timeout: 30 * time.Second, StallTimeout: 10 * time.Second},
		Retry:     core.RetryPolicy{Retries: 2, Backoff: time.Millisecond, Seed: 7},
		Options:   opts,
	})
	if err != nil {
		t.Fatalf("mixed-plane chaos run failed: %v (faults: %v)", err, &inj.Stats)
	}
	if got.Attempts != 2 || got.Degraded {
		t.Fatalf("Attempts=%d Degraded=%v, want one retry on lp-hj", got.Attempts, got.Degraded)
	}
	if got.TotalEvents != want.TotalEvents {
		t.Fatalf("chaotic run counted %d events, oracle %d", got.TotalEvents, want.TotalEvents)
	}
	if ok, diff := core.SameOutputs(want, got); !ok {
		t.Fatalf("mixed-plane chaos run diverged from oracle: %s", diff)
	}
	if got.Metrics["lp.restarts"] < 1 {
		t.Fatalf("lp.restarts = %d, want >= 1 (faults: %v)", got.Metrics["lp.restarts"], &inj.Stats)
	}
	if n := inj.Stats.Metrics()["chaos.task_panics"]; n != 1 {
		t.Fatalf("chaos.task_panics = %d, want 1", n)
	}
}
