package main

import (
	"fmt"
	"runtime"
	"time"

	"hjdes/internal/circuit"
	"hjdes/internal/core"
	"hjdes/internal/cspec"
	"hjdes/internal/partition"
)

// circuitConfig sizes one circuit workload.
type circuitConfig struct {
	spec       string
	waves      int   // random waves of the seq, hj and lp-hj runs
	twWaves    int   // tw-hj runs a shorter stimulus of the same circuit
	twWindow   int64 // tw-hj speculation window (0 = unbounded)
	twEvery    int   // tw-hj runs in every twEvery-th round (0 = every)
	kPerWorker int   // lp-hj partitions per worker
	coldQueue  bool  // the budget charges the out-of-cache deque cost
}

var (
	// kogge64 is wide and shallow with a small live event population:
	// scheduling, TryLock, the LP transport and the Time Warp protocol
	// do most of the work while the per-port queues stay in cache.
	kogge64 = circuitConfig{spec: "koggestone-64", waves: 10, twWaves: 2, twWindow: 64, kPerWorker: 8}
	// mult12 is deep and glitch-heavy (about 2.5M events per wave): the
	// per-port queues and model evaluation work out of cache. tw-hj runs
	// with a tight window (wider ones thrash here) in every second round,
	// because one run takes as long as ten of the other engines'.
	mult12 = circuitConfig{spec: "mult-12", waves: 1, twWaves: 1, twWindow: 4, twEvery: 2, kPerWorker: 8, coldQueue: true}
)

// setups is how many times a workload sets up per invocation; setup_s
// is their median.
const setups = 3

// engineRun is one engine of a circuit workload and its samples.
type engineRun struct {
	name  string
	timed core.Engine // outputs discarded, as in every timed run
	cold  core.Engine // outputs recorded, for the oracle check
	// fresh rebuilds timed before every run and drops it after: tw-hj
	// keeps its last run's state reachable from the engine (hundreds of
	// MB on mult12), which would otherwise stay live while the other
	// engines run and slow their collections.
	fresh func() (core.Engine, error)
	stim  *circuit.Stimulus
	ref   *core.Result // seq's result on the same stimulus

	coldMS  []float64
	nsPerEv []float64 // untraced timed runs
	nsSpans []float64 // timed runs with the benchmark's spans on

	// Traced run only: sums over the timed runs, and each run's
	// Result.Metrics.
	mallocs, bytes float64
	cpu, wall      time.Duration
	perRun         map[string][]float64
}

// total sums Result.Metrics counters over the traced run's timed runs.
func (er *engineRun) total(keys ...string) float64 {
	t := 0.0
	for _, k := range keys {
		t += sum(er.perRun[k])
	}
	return t
}

// circuitState is one set-up circuit workload.
type circuitState struct {
	cfg     circuitConfig
	c       *circuit.Circuit
	period  int64
	plan    *partition.Plan
	engines []*engineRun

	phases map[string][]float64 // ms per setup phase
}

// timeIt runs f inside a span and returns its wall time in ms.
func timeIt(t *tracer, name string, parent int64, tag string, f func()) float64 {
	id := t.start(name, parent, tag, 0)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	t.end(id)
	return float64(d.Nanoseconds()) / 1e6
}

// engineOptions is the option set every workload builds an engine with.
func engineOptions(name string, cfg circuitConfig, workers int) core.Options {
	opts := core.Options{Workers: workers}
	switch name {
	case "lp-hj":
		opts.Partitions = cfg.kPerWorker * workers
	case "tw-hj":
		opts.TimeWarpWindow = cfg.twWindow
	}
	return opts
}

// checkRun reports why a run does not match the seq reference on the
// same stimulus: an error, or a different total or per-node event count.
func checkRun(res *core.Result, err error, ref *core.Result) error {
	if err != nil {
		return err
	}
	if res.TotalEvents != ref.TotalEvents {
		return fmt.Errorf("%d events, seq reference %d", res.TotalEvents, ref.TotalEvents)
	}
	if len(res.NodeEvents) != len(ref.NodeEvents) {
		return fmt.Errorf("%d per-node counts, seq reference %d", len(res.NodeEvents), len(ref.NodeEvents))
	}
	for i, n := range res.NodeEvents {
		if n != ref.NodeEvents[i] {
			return fmt.Errorf("node %d: %d events, seq reference %d", i, n, ref.NodeEvents[i])
		}
	}
	return nil
}

// stimWaves recovers the per-wave input assignments of a RandomStimulus,
// which the oracle check needs.
func stimWaves(c *circuit.Circuit, s *circuit.Stimulus) []map[string]circuit.Value {
	waves := make([]map[string]circuit.Value, len(s.ByInput[0]))
	for w := range waves {
		m := make(map[string]circuit.Value, len(c.Inputs))
		for i, id := range c.Inputs {
			m[c.Nodes[id].Name] = s.ByInput[i][w].Value
		}
		waves[w] = m
	}
	return waves
}

// setupCircuit builds the circuit, its stimuli, a partition plan and the
// engines, then cold-runs every engine with outputs recorded and checks
// each against the oracle and the seq reference.
func setupCircuit(e *env, cfg circuitConfig, parent int64) (*circuitState, error) {
	t := e.tr
	st := &circuitState{cfg: cfg, phases: map[string][]float64{}}
	var err error
	phase := func(name, tag string, f func()) {
		st.phases[name] = append(st.phases[name], timeIt(t, name, parent, tag, f))
	}
	phase("circuit.build", "", func() { st.c, err = cspec.Build(cfg.spec) })
	if err != nil {
		return nil, err
	}
	st.period = st.c.SettleTime() + 10
	var stim, twStim *circuit.Stimulus
	phase("circuit.stimulus", "", func() {
		stim = circuit.RandomStimulus(st.c, cfg.waves, st.period, e.seed)
		twStim = stim
		if cfg.twWaves != cfg.waves {
			twStim = circuit.RandomStimulus(st.c, cfg.twWaves, st.period, e.seed)
		}
	})
	phase("partition.plan", "", func() {
		st.plan, err = partition.Partition(st.c, cfg.kPerWorker*e.workers)
	})
	if err != nil {
		return nil, err
	}
	timeIt(t, "engine.new", parent, "", func() {
		for _, name := range engineNames {
			opts := engineOptions(name, cfg, e.workers)
			build := func(opts core.Options) (core.Engine, error) {
				eng, err := core.NewEngine(name, opts)
				if err == nil && e.wrap != nil {
					eng = e.wrap(eng)
				}
				return eng, err
			}
			er := &engineRun{name: name, stim: stim, perRun: map[string][]float64{}}
			if er.cold, err = build(opts); err != nil {
				return
			}
			opts.DiscardOutputs = true
			if er.timed, err = build(opts); err != nil {
				return
			}
			if name == "tw-hj" {
				er.stim = twStim
				er.fresh = func() (core.Engine, error) { return build(opts) }
			}
			st.engines = append(st.engines, er)
		}
	})
	if err != nil {
		return nil, err
	}

	// seq runs first: its results are the references. The tw-hj
	// stimulus gets its own seq reference.
	refs := map[*circuit.Stimulus]*core.Result{}
	seqCold := st.engines[0].cold
	for _, s := range []*circuit.Stimulus{stim, twStim} {
		if refs[s] != nil {
			continue
		}
		var res *core.Result
		ms := timeIt(t, "engine.cold_run", parent, "seq", func() { res, err = seqCold.Run(st.c, s) })
		if !e.ops.record("seq cold run", err) {
			return nil, fmt.Errorf("seq reference run: %w", err)
		}
		if s == stim {
			st.engines[0].coldMS = append(st.engines[0].coldMS, ms)
			phase("verify.oracle", "seq", func() {
				err = core.VerifyAgainstOracle(st.c, stimWaves(st.c, s), st.period, res)
			})
			if !e.ops.record("seq oracle", err) {
				return nil, fmt.Errorf("seq reference fails the oracle: %w", err)
			}
		}
		refs[s] = res
	}
	for _, er := range st.engines {
		er.ref = refs[er.stim]
		if er.name == "seq" {
			continue
		}
		var res *core.Result
		ms := timeIt(t, "engine.cold_run", parent, er.name, func() { res, err = er.cold.Run(st.c, er.stim) })
		er.coldMS = append(er.coldMS, ms)
		if err == nil {
			timeIt(t, "verify.oracle", parent, er.name, func() {
				if err = core.VerifyAgainstOracle(st.c, stimWaves(st.c, er.stim), st.period, res); err == nil {
					err = checkRun(res, nil, er.ref)
				}
			})
		}
		e.ops.record(er.name+" cold run", err)
	}
	for _, er := range st.engines {
		er.cold = nil // release what the cold run left reachable
	}
	return st, nil
}

// setupRepeated sets up cfg `setups` times and returns the last state
// and the setup times. The state keeps every setup's phase and cold-run
// times.
func setupRepeated(e *env, cfg circuitConfig) (*circuitState, []float64, error) {
	var st *circuitState
	var secs []float64
	phases := map[string][]float64{}
	cold := map[string][]float64{}
	for i := 0; i < setups; i++ {
		runtime.GC()
		id := e.tr.start("setup", e.root, "", 0)
		t0 := time.Now()
		s, err := setupCircuit(e, cfg, id)
		secs = append(secs, time.Since(t0).Seconds())
		e.tr.end(id)
		if err != nil {
			return nil, nil, err
		}
		for k, v := range s.phases {
			phases[k] = append(phases[k], v...)
		}
		for _, er := range s.engines {
			cold[er.name] = append(cold[er.name], er.coldMS...)
		}
		st = s
	}
	st.phases = phases
	for _, er := range st.engines {
		er.coldMS = cold[er.name]
	}
	return st, secs, nil
}

// runOnce times one run of er and checks it against the seq reference.
// With stats set it also takes MemStats and CPU deltas around the run
// and keeps the run's counters; both are read outside the timed call.
func (st *circuitState) runOnce(e *env, er *engineRun, t *tracer, stats bool) {
	if er.fresh != nil {
		var err error
		if er.timed, err = er.fresh(); err != nil {
			e.ops.record(er.name+" run", err)
			return
		}
		defer func() { er.timed = nil }()
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	var cpu0 time.Duration
	if stats {
		runtime.ReadMemStats(&m0)
		cpu0 = cpuTime()
	}
	id := t.start("run", e.root, er.name, 0)
	t0 := time.Now()
	res, err := er.timed.Run(st.c, er.stim)
	wall := time.Since(t0)
	t.end(id)
	if stats {
		cpu := cpuTime() - cpu0
		runtime.ReadMemStats(&m1)
		if err == nil {
			er.mallocs += float64(m1.Mallocs - m0.Mallocs)
			er.bytes += float64(m1.TotalAlloc - m0.TotalAlloc)
			er.cpu += cpu
			er.wall += wall
		}
	}
	if !e.ops.record(er.name+" run", checkRun(res, err, er.ref)) {
		return
	}
	ns := float64(wall.Nanoseconds()) / float64(er.ref.TotalEvents)
	if t.on {
		er.nsSpans = append(er.nsSpans, ns)
	} else {
		er.nsPerEv = append(er.nsPerEv, ns)
	}
	if stats {
		for k, v := range res.Metrics {
			er.perRun[k] = append(er.perRun[k], float64(v))
		}
	}
}

// rounds runs every engine once per round (tw-hj once per twEvery
// rounds), rotating the order, until the next round would overrun
// budget. With spans set, the benchmark's spans are on in every other
// block of twEvery rounds, so the tracing overhead is measured in the
// same process and every engine runs both ways.
func (st *circuitState) rounds(e *env, budget time.Duration, spans, stats bool) {
	off := newTracer(false)
	every := max(1, st.cfg.twEvery)
	start := time.Now()
	var last time.Duration
	for r := 0; ; r++ {
		if r > 0 && time.Since(start)+last > budget {
			break
		}
		t := off
		if spans && (r/every)%2 == 1 {
			t = e.tr
		}
		r0 := time.Now()
		for k := range st.engines {
			er := st.engines[(r+k)%len(st.engines)]
			if er.name == "tw-hj" && r%every != 0 {
				continue
			}
			st.runOnce(e, er, t, stats)
		}
		last = time.Since(r0)
	}
}

// runCircuit is the kogge64 / mult12 workload.
func runCircuit(e *env, cfg circuitConfig) error {
	st, secs, err := setupRepeated(e, cfg)
	if err != nil {
		return err
	}
	budget := time.Duration(e.seconds * float64(time.Second))
	if e.traced {
		return tracedCircuit(e, st, budget)
	}
	st.rounds(e, budget, false, false)

	e.rep.set("setup_s", median(secs), "s", len(secs))
	var lat []float64
	for _, er := range st.engines {
		printDist(e, er.name+" ns/event", er.nsPerEv)
		e.rep.set(er.name+".ns_per_event", median(er.nsPerEv), "ns", len(er.nsPerEv))
		for _, ns := range er.nsPerEv {
			lat = append(lat, ns*float64(er.ref.TotalEvents)/1e6)
		}
	}
	e.rep.set("peak_rss_mb", peakRSSMB(), "MB", 1)
	// A job here is one timed run; throughput counts engine time only,
	// not the collections the benchmark forces between runs.
	return reportJobs(e, lat, 1e3*float64(len(lat))/sum(lat))
}

// reportJobs sets the job latency and throughput metrics.
func reportJobs(e *env, latMS []float64, perSec float64) error {
	p50, _ := percentile(latMS, 50)
	p90, ok := percentile(latMS, 90)
	if !ok {
		return fmt.Errorf("only %d operations: p90 needs at least %d beyond it", len(latMS), minTail)
	}
	e.rep.set("job.p50_ms", p50, "ms", len(latMS))
	e.rep.set("job.p90_ms", p90, "ms", len(latMS))
	e.rep.set("jobs_per_s", perSec, "1/s", len(latMS))
	return nil
}
