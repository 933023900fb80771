package chaos_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hjdes/internal/chaos"
	"hjdes/internal/circuit"
	"hjdes/internal/core"
)

// TestParseSchedSpecRoundTrip checks that every scheduler-plane key of
// the -chaos grammar parses into its Config field, and that a spec
// naming only that plane leaves the message plane off.
func TestParseSchedSpecRoundTrip(t *testing.T) {
	cfg, err := chaos.ParseSpec("seed=7, panic=0.25, maxpanics=3, wakedrop=0.5, maxwakedrops=4, wakedelay=0.1, rollback=0.75, maxrollbacks=16")
	if err != nil {
		t.Fatal(err)
	}
	if cfg != (chaos.Config{Seed: 7, PanicProb: 0.25, MaxPanics: 3, WakeDropProb: 0.5,
		MaxWakeDrops: 4, WakeDelayProb: 0.1, RollbackProb: 0.75, MaxRollbacks: 16}) {
		t.Fatalf("scheduler-plane spec parsed as %+v", cfg)
	}
	for _, bad := range []string{"panic=lots", "maxpanics=-", "wakedrop=x", "rollback=", "maxrollbacks=1.5"} {
		if _, err := chaos.ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

// TestSchedPanicCapExactUnderConcurrency hammers the task hook from many
// goroutines and checks the injected-panic cap holds exactly.
func TestSchedPanicCapExactUnderConcurrency(t *testing.T) {
	inj := chaos.New(chaos.Config{Seed: 3, PanicProb: 1, MaxPanics: 5})
	hooks := inj.Hooks()
	if hooks.Task == nil {
		t.Fatal("panic hook not armed")
	}
	var panics atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				func() {
					defer func() {
						if r := recover(); r != nil {
							if _, ok := r.(chaos.InjectedPanic); !ok {
								t.Errorf("unexpected panic value %v", r)
							}
							panics.Add(1)
						}
					}()
					hooks.Task(0)
				}()
			}
		}()
	}
	wg.Wait()
	if panics.Load() != 5 {
		t.Fatalf("observed %d injected panics, cap is 5", panics.Load())
	}
	if inj.Stats.TaskPanics.Load() != 5 {
		t.Fatalf("stats count %d panics, want 5", inj.Stats.TaskPanics.Load())
	}
}

func TestSchedHooksNilWhenUnconfigured(t *testing.T) {
	h := chaos.New(chaos.Config{Seed: 1}).Hooks()
	if h.Intercept != nil || h.Task != nil || h.Wake != nil || h.Rollback != nil {
		t.Fatalf("zero-probability config armed hooks: %+v", h)
	}
}

func TestSchedStatsMetrics(t *testing.T) {
	inj := chaos.New(chaos.Config{Seed: 2, WakeDropProb: 1, MaxWakeDrops: 2})
	h := inj.Hooks()
	for i := 0; i < 5; i++ {
		h.Wake()
	}
	m := inj.Stats.Metrics()
	if m["chaos.wake_drops"] != 2 {
		t.Fatalf("chaos.wake_drops = %d, want 2 (capped)", m["chaos.wake_drops"])
	}
	for _, key := range []string{"chaos.held", "chaos.released", "chaos.duped_nulls", "chaos.dropped_nulls", "chaos.kills",
		"chaos.task_panics", "chaos.wake_drops", "chaos.wake_delays", "chaos.rollback_storms"} {
		if _, ok := m[key]; !ok {
			t.Fatalf("metrics missing %s", key)
		}
	}
}

// schedFamilies maps each engine family that consumes core.ChaosHooks to
// one representative registry name.
var schedFamilies = []string{"seq", "hj", "galois", "galois-ordered", "timewarp", "tw-hj"}

// runResilientChaos runs the named engine under core.Resilient with the
// given injector wired in, a seq fallback, and full checkpointing.
func runResilientChaos(t *testing.T, name string, c *circuit.Circuit, stim *circuit.Stimulus, inj *chaos.Injector) *core.Result {
	t.Helper()
	opts := core.Options{Workers: 4, CheckpointEvery: 1, Chaos: inj.Hooks()}
	e, err := core.NewEngine(name, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Resilient(nil, e, c, stim, core.ResilientConfig{
		Supervise: core.SuperviseConfig{Timeout: 30 * time.Second, StallTimeout: 5 * time.Second},
		Retry:     core.RetryPolicy{Retries: 2, Backoff: time.Millisecond, Seed: 1},
		Fallback:  []string{"seq"},
		Options:   opts,
	})
	if err != nil {
		t.Fatalf("%s chaotic run failed: %v", name, err)
	}
	return res
}

// TestInducedPanicRecoveryPerFamily is the per-engine-family acceptance
// test: a guaranteed injected task panic must surface as a retryable
// failure, and the resilient retry (resuming from checkpoints) must
// complete bit-exact against the sequential oracle with the recovery
// visible in the result metrics.
func TestInducedPanicRecoveryPerFamily(t *testing.T) {
	c := circuit.KoggeStone(8)
	stim := circuit.RandomStimulus(c, 5, c.SettleTime()+10, 41)
	ref := seqReference(t, c, stim)

	for _, name := range schedFamilies {
		t.Run(name, func(t *testing.T) {
			inj := chaos.New(chaos.Config{Seed: 11, PanicProb: 1, MaxPanics: 1})
			res := runResilientChaos(t, name, c, stim, inj)
			if inj.Stats.TaskPanics.Load() != 1 {
				t.Fatalf("injected %d panics, want 1", inj.Stats.TaskPanics.Load())
			}
			if res.Attempts != 2 || res.Degraded {
				t.Fatalf("Attempts=%d Degraded=%v, want one retry on the same engine", res.Attempts, res.Degraded)
			}
			if res.Metrics["resilient.retries"] != 1 {
				t.Fatalf("resilient.retries = %d, want 1", res.Metrics["resilient.retries"])
			}
			if res.TotalEvents != ref.TotalEvents {
				t.Fatalf("recovered run counted %d events, oracle %d", res.TotalEvents, ref.TotalEvents)
			}
			if ok, diff := core.SameOutputs(ref, res); !ok {
				t.Fatalf("recovered %s diverged from oracle: %s", name, diff)
			}
		})
	}
}

// TestWakeDropRecoveryHJ drops hj wake tokens: the run must still finish
// bit-exact, either in place (parking workers re-scan for visible work) or
// through the stall watchdog and a resilient retry.
func TestWakeDropRecoveryHJ(t *testing.T) {
	c := circuit.FanoutTree(5)
	stim := circuit.RandomStimulus(c, 5, c.SettleTime()+10, 43)
	ref := seqReference(t, c, stim)

	inj := chaos.New(chaos.Config{Seed: 13, WakeDropProb: 0.5, MaxWakeDrops: 4, WakeDelayProb: 0.25})
	res := runResilientChaos(t, "hj", c, stim, inj)
	if ok, diff := core.SameOutputs(ref, res); !ok {
		t.Fatalf("wake-drop run diverged: %s", diff)
	}
	if res.TotalEvents != ref.TotalEvents {
		t.Fatalf("wake-drop run counted %d events, oracle %d", res.TotalEvents, ref.TotalEvents)
	}
}

// TestRollbackStormTimewarp forces extra Time Warp rollbacks and checks
// they are semantics-preserving: the output must stay bit-exact while the
// injector confirms storms actually fired.
func TestRollbackStormTimewarp(t *testing.T) {
	c := circuit.KoggeStone(16)
	stim := circuit.RandomStimulus(c, 6, c.SettleTime()+10, 47)
	ref := seqReference(t, c, stim)

	// No checkpoint segmentation here: a segment per wave would collapse
	// the optimism window (all of a segment's stimulus is in flight at
	// once), leaving processed logs too short to storm.
	inj := chaos.New(chaos.Config{Seed: 17, RollbackProb: 0.9, MaxRollbacks: 100})
	opts := core.Options{Workers: 4, Chaos: inj.Hooks()}
	e, err := core.NewEngine("timewarp", opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Resilient(nil, e, c, stim, core.ResilientConfig{
		Supervise: core.SuperviseConfig{Timeout: 30 * time.Second},
		Retry:     core.RetryPolicy{Retries: 2, Backoff: time.Millisecond, Seed: 1},
		Fallback:  []string{"seq"},
		Options:   opts,
	})
	if err != nil {
		t.Fatalf("rollback-storm run failed: %v", err)
	}
	if inj.Stats.Rollbacks.Load() == 0 {
		t.Fatal("rollback storm never fired")
	}
	if res.TimeWarp.Rollbacks == 0 {
		t.Fatal("timewarp stats recorded no rollbacks")
	}
	if ok, diff := core.SameOutputs(ref, res); !ok {
		t.Fatalf("rollback-storm run diverged: %s", diff)
	}
}

// TestRollbackStormTWHJ is the barrier-free analogue: storms are keyed
// by (node, slice) instead of (node, round), and the engine's own
// rollback counters must confirm the extra rollbacks were absorbed
// bit-exact — no global barrier re-synchronizes the nodes afterwards.
func TestRollbackStormTWHJ(t *testing.T) {
	c := circuit.KoggeStone(16)
	stim := circuit.RandomStimulus(c, 6, c.SettleTime()+10, 47)
	ref := seqReference(t, c, stim)

	inj := chaos.New(chaos.Config{Seed: 19, RollbackProb: 0.9, MaxRollbacks: 100})
	opts := core.Options{Workers: 4, Chaos: inj.Hooks()}
	e, err := core.NewEngine("tw-hj", opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Resilient(nil, e, c, stim, core.ResilientConfig{
		Supervise: core.SuperviseConfig{Timeout: 30 * time.Second},
		Retry:     core.RetryPolicy{Retries: 2, Backoff: time.Millisecond, Seed: 1},
		Fallback:  []string{"seq"},
		Options:   opts,
	})
	if err != nil {
		t.Fatalf("rollback-storm run failed: %v", err)
	}
	if inj.Stats.Rollbacks.Load() == 0 {
		t.Fatal("rollback storm never fired")
	}
	if res.TimeWarp.Rollbacks == 0 {
		t.Fatal("tw-hj stats recorded no rollbacks")
	}
	if ok, diff := core.SameOutputs(ref, res); !ok {
		t.Fatalf("rollback-storm run diverged: %s", diff)
	}
}

// TestChaosSoakAllEngines is the full recovery soak: every registered
// engine × every scheduler fault kind × several seeds, each run under
// core.Resilient with checkpoint-resume and a seq fallback, each output
// compared bit for bit against the sequential oracle. Under its "lp"
// name the LP engine takes message-plane faults instead (delayed
// releases, duplicated nulls, kill-and-restart); under
// "lp-hj" it takes the scheduler faults like the other hj engines. ~200
// runs; -short trims the seed axis, CI's chaos-soak job runs the full
// matrix under -race.
func TestChaosSoakAllEngines(t *testing.T) {
	c := circuit.ParityChain(12)
	stim := circuit.RandomStimulus(c, 4, c.SettleTime()+10, 53)
	ref := seqReference(t, c, stim)

	seeds := []int64{1, 2, 3, 4, 5, 6}
	if testing.Short() {
		seeds = seeds[:1]
	}
	kinds := []string{"panic", "wakedrop", "rollback"}
	for _, name := range core.EngineNames() {
		for _, kind := range kinds {
			for _, seed := range seeds {
				t.Run(fmt.Sprintf("%s/%s/seed%d", name, kind, seed), func(t *testing.T) {
					t.Parallel()
					var res *core.Result
					if name == "lp" {
						res = runResilientLPChaos(t, kind, seed, c, stim)
					} else {
						inj := chaos.New(schedConfigFor(kind, seed))
						res = runResilientChaos(t, name, c, stim, inj)
					}
					if res.TotalEvents != ref.TotalEvents {
						t.Fatalf("chaotic run counted %d events, oracle %d", res.TotalEvents, ref.TotalEvents)
					}
					if ok, diff := core.SameOutputs(ref, res); !ok {
						t.Fatalf("chaotic run diverged from oracle: %s", diff)
					}
				})
			}
		}
	}
}

func schedConfigFor(kind string, seed int64) chaos.Config {
	cfg := chaos.Config{Seed: seed}
	switch kind {
	case "panic":
		cfg.PanicProb, cfg.MaxPanics = 0.001, 2
	case "wakedrop":
		cfg.WakeDropProb, cfg.MaxWakeDrops, cfg.WakeDelayProb = 0.2, 3, 0.1
	case "rollback":
		cfg.RollbackProb, cfg.MaxRollbacks = 0.5, 8
	}
	return cfg
}

// runResilientLPChaos drives the LP engine with message-plane faults
// under the same resilient envelope as the scheduler families.
func runResilientLPChaos(t *testing.T, kind string, seed int64, c *circuit.Circuit, stim *circuit.Stimulus) *core.Result {
	t.Helper()
	cfg := chaos.Config{Seed: seed}
	switch kind {
	case "panic": // closest message-plane analogue: kill an LP mid-run
		cfg.KillProb, cfg.MaxKills = 0.05, 1
	case "wakedrop":
		cfg.DelayProb, cfg.MaxHeld = 0.3, 8
	case "rollback":
		cfg.DupNullProb = 0.4
	}
	opts := core.Options{Partitions: 3, CheckpointEvery: 1, Chaos: chaos.New(cfg).Hooks()}
	e := core.NewLPHJ(opts)
	res, err := core.Resilient(nil, e, c, stim, core.ResilientConfig{
		Supervise: core.SuperviseConfig{Timeout: 30 * time.Second, StallTimeout: 5 * time.Second},
		Retry:     core.RetryPolicy{Retries: 2, Backoff: time.Millisecond, Seed: seed},
		Fallback:  []string{"seq"},
		Options:   opts,
	})
	if err != nil {
		t.Fatalf("lp chaotic run (%s) failed: %v", kind, err)
	}
	return res
}
