package core_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"hjdes/internal/chaos"
	"hjdes/internal/circuit"
	"hjdes/internal/core"
	"hjdes/internal/obs"
)

// TestTracedLPKoggestone is the acceptance run for the flight recorder:
// a traced koggestone-64 lp run must emit Chrome trace_event JSON that
// parses and carries events from at least two worker (LP) tracks.
func TestTracedLPKoggestone(t *testing.T) {
	c := circuit.KoggeStone(64)
	stim := circuit.RandomStimulus(c, 4, c.SettleTime()+10, 1)
	rec := obs.NewRecorder(0)
	eng := core.NewLPHJ(core.Options{Workers: 2, Partitions: 4, Paranoid: true, Trace: rec})
	res, err := eng.Run(c, stim)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalEvents == 0 {
		t.Fatal("run processed no events")
	}

	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, rec.Events()); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			TS    float64 `json:"ts"`
			TID   int32   `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("emitted trace is not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("traced run emitted no events")
	}
	tids := map[int32]bool{}
	names := map[string]bool{}
	for _, ev := range trace.TraceEvents {
		if ev.Phase != "i" {
			t.Fatalf("event phase = %q, want instant", ev.Phase)
		}
		tids[ev.TID] = true
		names[ev.Name] = true
	}
	if len(tids) < 2 {
		t.Fatalf("trace covers %d worker tracks, want >= 2 (tids: %v)", len(tids), tids)
	}
	// A conservative lp run must at minimum ship batches and apply them.
	for _, want := range []string{"lp-send", "lp-recv"} {
		if !names[want] {
			t.Fatalf("trace has no %q events (saw %v)", want, names)
		}
	}
}

// TestMetricsAllEngines: every engine family reports through the uniform
// metrics map, and a shared registry accumulates across runs.
func TestMetricsAllEngines(t *testing.T) {
	c := circuit.KoggeStone(16)
	reg := obs.NewRegistry(0)
	cases := []struct {
		name string
		mk   func(opts core.Options) core.Engine
		keys []string
	}{
		{"seq", core.NewSequential, []string{"events"}},
		{"hj", core.NewHJ, []string{"events", "hj.spawns", "hj.steals", "hj.parks"}},
		{"lp", core.NewLPHJ, []string{"events", "lp.partitions", "lp.event_msgs", "lp.null_msgs", "lp.batches"}},
		{"galois", core.NewGalois, []string{"events", "galois.committed"}},
		{"timewarp", core.NewTimeWarp, []string{"events", "tw.rounds", "hj.spawns"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stim := circuit.RandomStimulus(c, 4, c.SettleTime()+10, 2)
			eng := tc.mk(core.Options{Workers: 4, Partitions: 4, Paranoid: true, Metrics: reg})
			res, err := eng.Run(c, stim)
			if err != nil {
				t.Fatal(err)
			}
			if res.Metrics == nil {
				t.Fatal("Result.Metrics is nil")
			}
			for _, k := range tc.keys {
				if _, ok := res.Metrics[k]; !ok {
					t.Errorf("metrics missing %q (have: %s)", k, res.Metrics)
				}
			}
			if res.Metrics["events"] != res.TotalEvents {
				t.Errorf("metrics events = %d, want %d", res.Metrics["events"], res.TotalEvents)
			}
		})
	}
	// The shared registry saw every run: its merged view covers all families.
	snap := reg.Snapshot()
	for _, k := range []string{"events", "hj.spawns", "lp.event_msgs", "galois.committed", "tw.rounds"} {
		if snap.Counters[k] == 0 {
			t.Errorf("registry counter %q = 0 after all-engine sweep (have: %s)", k, snap.Counters)
		}
	}
	// The lp engine observes live batch sizes on the registry's histogram.
	h, ok := snap.Hists["lp.batch_size"]
	if !ok || h.Count == 0 {
		t.Fatalf("lp.batch_size histogram empty: %+v (hists: %v)", h, snap.Hists)
	}
	if h.Min < 1 || h.P50 < 1 {
		t.Errorf("batch-size distribution implausible: %+v", h)
	}
}

// TestWatchdogDiagIncludesTraceTail induces the drop-nulls deadlock with
// tracing enabled and requires the stall's diagnostic dump to carry the
// flight-recorder tail — the last events each LP recorded before the
// runtime quiesced.
func TestWatchdogDiagIncludesTraceTail(t *testing.T) {
	c := circuit.KoggeStone(16)
	stim := circuit.RandomStimulus(c, 4, c.SettleTime()+10, 9)
	rec := obs.NewRecorder(0)

	inj := chaos.New(chaos.Config{Seed: 9, DropNulls: true})
	eng := core.NewLPHJ(core.Options{
		Workers: 2, Partitions: 4, Paranoid: true, Trace: rec, Chaos: inj.Hooks(),
	})

	_, err := core.Supervise(context.Background(), eng, c, stim,
		core.SuperviseConfig{Timeout: 30 * time.Second, StallTimeout: 300 * time.Millisecond})
	var ee *core.EngineError
	if !errors.As(err, &ee) {
		t.Fatalf("deadlocked run returned %v, want *EngineError", err)
	}
	if ee.Reason != core.FailStall {
		t.Fatalf("reason = %q, want %q", ee.Reason, core.FailStall)
	}
	if !strings.Contains(ee.Diag, "flight recorder") {
		t.Fatalf("diagnostics missing flight-recorder tail:\n%s", ee.Diag)
	}
	// The tail must show real transport activity from before the wedge,
	// attributed to a shard.
	if !strings.Contains(ee.Diag, "[shard ") {
		t.Fatalf("flight-recorder tail has no shard-attributed events:\n%s", ee.Diag)
	}
	for _, want := range []string{"lp-send", "lp-slice"} {
		if !strings.Contains(ee.Diag, want) {
			t.Fatalf("flight-recorder tail missing %q events:\n%s", want, ee.Diag)
		}
	}
}

// TestUntracedRunHasNoRecorder pins the disabled path: no Options.Trace
// means engines see nil rings everywhere and results still carry metrics.
func TestUntracedRunHasNoRecorder(t *testing.T) {
	c := circuit.KoggeStone(16)
	stim := circuit.RandomStimulus(c, 2, c.SettleTime()+10, 3)
	res, err := core.NewLPHJ(core.Options{Partitions: 2, Paranoid: true}).Run(c, stim)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics == nil || res.Metrics["events"] != res.TotalEvents {
		t.Fatalf("untraced run metrics = %v", res.Metrics)
	}
}
