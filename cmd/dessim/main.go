// Command dessim runs one logic-circuit DES simulation and reports the
// result: engine, worker count, events processed, wall time, throughput
// and scheduler statistics.
//
// Usage:
//
//	dessim -circuit koggestone-64 -engine hj -workers 8 -waves 100
//	dessim -circuit file:adder.net -engine seq -verify
//	dessim -circuit random:8,200,6,42 -engine galois -workers 4
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"

	"hjdes/internal/atomicfile"
	"hjdes/internal/chaos"
	"hjdes/internal/circuit"
	"hjdes/internal/core"
	"hjdes/internal/cspec"
	"hjdes/internal/obs"
	"hjdes/internal/trace"
)

var (
	circuitFlag = flag.String("circuit", "koggestone-64", "circuit spec: "+strings.Join(cspec.Known(), " | "))
	engineFlag  = flag.String("engine", "hj", "engine: "+strings.Join(core.EngineNames(), " | "))
	twWindow    = flag.Int64("tw-window", 0, "timewarp/tw-hj: speculation window (0 = unbounded)")
	twSaveEvery = flag.Int("tw-save-every", 0, "tw-hj: incremental state-saving interval (save pre-state every Nth event; 0 = every event)")
	twAdaptive  = flag.Bool("tw-adaptive", false, "tw-hj: let the GVT sweep widen/narrow the speculation window from the observed rollback fraction")
	workersFlag = flag.Int("workers", 0, "worker count for parallel engines (0 = GOMAXPROCS)")
	partsFlag   = flag.Int("partitions", 0, "lp: logical-process count (0 = workers)")
	wavesFlag   = flag.Int("waves", 10, "number of random input waves")
	seedFlag    = flag.Int64("seed", 1, "stimulus seed")
	verifyFlag  = flag.Bool("verify", false, "check outputs against the combinational oracle")
	statsFlag   = flag.Bool("stats", false, "print runtime scheduler statistics")
	vcdFlag     = flag.String("vcd", "", "write output waveforms to this VCD file (implies recording outputs)")
	hotFlag     = flag.Int("hotspots", 0, "print the N busiest nodes by processed events")
	timeoutFlag = flag.Duration("timeout", 0, "fail the run after this long (0 = unbounded)")
	stallFlag   = flag.Duration("stall", 0, "fail the run if the engine makes no progress for this long (0 = no watchdog)")
	chaosFlag   = flag.String("chaos", "", "fault-injection spec, e.g. seed=7,delay=0.3,kill=0.1,panic=0.01 (fields: seed delay dup kill maxkills maxheld dropnulls panic maxpanics wakedrop maxwakedrops wakedelay rollback maxrollbacks); each engine takes the faults it has injection sites for")
	retryFlag   = flag.Int("retries", 0, "resilient: extra attempts per engine on retryable failures before degrading (0 = fail fast)")
	fbFlag      = flag.String("fallback", "", "resilient: comma-separated engine degradation chain tried after the retry budget, e.g. lp,seq")
	ckptFlag    = flag.Int("checkpoint-every", 0, "resilient: snapshot crash-consistent state every N settle boundaries so retries resume instead of restarting (0 = off)")
	traceFlag   = flag.String("trace-out", "", "record a flight-recorder trace and write it as Chrome trace_event JSON (load in Perfetto or chrome://tracing)")
	metricsFlag = flag.Bool("metrics", false, "print the run's uniform metrics map (all engine counters, dot-namespaced)")
	// Ablation toggles (HJ engine).
	pqFlag       = flag.Bool("pernode-pq", false, "hj: per-node priority queue instead of per-port deques")
	nodeLockFlag = flag.Bool("pernode-locks", false, "hj: per-node locks instead of per-port locks")
	noTempFlag   = flag.Bool("no-temp-queue", false, "hj: disable the temporary ready-event queue")
	naiveFlag    = flag.Bool("naive-respawn", false, "hj: disable avoidance of unnecessary asyncs")
	isoFlag      = flag.Bool("global-isolated", false, "hj: use the global isolated construct instead of TryLock")
	mutexFlag    = flag.Bool("mutex-locks", false, "hj: back locks with sync.Mutex instead of atomic booleans")
	noAffFlag    = flag.Bool("no-affinity", false, "hj: disable locality-aware mailbox wakeups (no home workers)")
	steal1Flag   = flag.Bool("single-steal", false, "hj: classic one-task steal instead of batched steal-half")
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dessim: "+format+"\n", args...)
	os.Exit(1)
}

// Run-scoped instrumentation, package-level so the failure path
// (dieSupervised) can report fault counts and dump the trace.
var (
	recorder *obs.Recorder
	injector *chaos.Injector
)

func main() {
	flag.Parse()
	c, err := cspec.Build(*circuitFlag)
	if err != nil {
		fatalf("%v", err)
	}
	opts := core.Options{
		Workers:           *workersFlag,
		Partitions:        *partsFlag,
		PerNodePQ:         *pqFlag,
		PerNodeLocks:      *nodeLockFlag,
		NoTempQueue:       *noTempFlag,
		NaiveRespawn:      *naiveFlag,
		GlobalIsolated:    *isoFlag,
		MutexLocks:        *mutexFlag,
		NoAffinity:        *noAffFlag,
		SingleSteal:       *steal1Flag,
		TimeWarpWindow:    *twWindow,
		TimeWarpSaveEvery: *twSaveEvery,
		TimeWarpAdaptive:  *twAdaptive,
		CheckpointEvery:   *ckptFlag,
		DiscardOutputs:    !*verifyFlag && *vcdFlag == "",
	}
	if *traceFlag != "" {
		recorder = obs.NewRecorder(0)
		opts.Trace = recorder
	}
	if *chaosFlag != "" {
		ccfg, err := chaos.ParseSpec(*chaosFlag)
		if err != nil {
			fatalf("%v", err)
		}
		injector = chaos.New(ccfg)
		opts.Chaos = injector.Hooks()
	}
	eng, err := core.NewEngine(*engineFlag, opts)
	if err != nil {
		fatalf("%v", err)
	}

	fmt.Printf("circuit: %v\n", c)
	period := c.SettleTime() + 10
	rcfg := core.ResilientConfig{
		Supervise: core.SuperviseConfig{Timeout: *timeoutFlag, StallTimeout: *stallFlag},
		Retry:     core.RetryPolicy{Retries: *retryFlag, Seed: *seedFlag},
		Fallback:  fallbackChain(),
		Options:   opts,
	}
	if *verifyFlag {
		rng := rand.New(rand.NewSource(*seedFlag))
		waves := make([]map[string]circuit.Value, *wavesFlag)
		for w := range waves {
			m := make(map[string]circuit.Value)
			for _, name := range c.InputNames() {
				m[name] = circuit.Value(rng.Intn(2))
			}
			waves[w] = m
		}
		stim := circuit.VectorWaves(c, waves, period)
		res, err := core.Resilient(context.Background(), eng, c, stim, rcfg)
		if err != nil {
			dieSupervised(err)
		}
		if err := core.VerifyAgainstOracle(c, waves, period, res); err != nil {
			fatalf("verification failed: %v", err)
		}
		fmt.Printf("%v\nverify: OK (%d waves checked against the oracle)\n", res, len(waves))
		printResilience(res)
		printStats(res)
		printMetrics(res)
		printHotspots(c, res)
		writeVCD(res)
		writeTrace()
		return
	}
	stim := circuit.RandomStimulus(c, *wavesFlag, period, *seedFlag)
	res, err := core.Resilient(context.Background(), eng, c, stim, rcfg)
	if err != nil {
		dieSupervised(err)
	}
	fmt.Printf("initial events: %d\n%v\n", stim.NumEvents(), res)
	printResilience(res)
	printStats(res)
	printMetrics(res)
	printHotspots(c, res)
	writeVCD(res)
	writeTrace()
}

// fallbackChain parses the -fallback engine list.
func fallbackChain() []string {
	if *fbFlag == "" {
		return nil
	}
	var chain []string
	for _, name := range strings.Split(*fbFlag, ",") {
		if name = strings.TrimSpace(name); name != "" {
			chain = append(chain, name)
		}
	}
	return chain
}

// printResilience prints the DEGRADED banner (or a recovery note) when the
// run survived failures. A degraded run still exits 0: the simulation
// completed, just not on the engine that was asked for.
func printResilience(res *core.Result) {
	if res.Degraded {
		fmt.Printf("DEGRADED: completed on fallback engine %q after %d attempts\n", res.Engine, res.Attempts)
	} else if res.Attempts > 1 {
		fmt.Printf("recovered: %d attempts on %q\n", res.Attempts, res.Engine)
	}
}

// dieSupervised reports a failed supervised run. Structured engine
// failures (panic, timeout, stall) print their diagnostic snapshot and
// exit with status 2 — with -retries/-fallback that means the whole
// degradation chain failed, not just the first engine. Usage and
// configuration errors exit 1; degraded-but-complete runs exit 0.
func dieSupervised(err error) {
	removeStaleVCD()
	var ee *core.EngineError
	if errors.As(err, &ee) {
		fmt.Fprintf(os.Stderr, "dessim: %v\n", ee)
		if ee.Diag != "" {
			fmt.Fprintf(os.Stderr, "--- engine diagnostics ---\n%s", ee.Diag)
		}
		if injector != nil {
			fmt.Fprintf(os.Stderr, "--- injected faults ---\n%v\n", &injector.Stats)
		}
		if ee.Reason == core.FailPanic && len(ee.Stack) > 0 {
			fmt.Fprintf(os.Stderr, "--- panic stack ---\n%s", ee.Stack)
		}
		writeTrace() // the trace of a failed run is the one worth keeping
		os.Exit(2)
	}
	fatalf("%v", err)
}

// printHotspots lists the busiest nodes when -hotspots is set.
func printHotspots(c *circuit.Circuit, res *core.Result) {
	if *hotFlag <= 0 {
		return
	}
	fmt.Printf("top %d nodes by processed events:\n", *hotFlag)
	for _, h := range core.TopHotspots(c, res, *hotFlag) {
		fmt.Printf("  %v\n", h)
	}
}

// removeStaleVCD deletes the -vcd target on a failed run: writeVCD only
// runs on success, so without this a waveform file left by a previous
// invocation would silently survive and masquerade as this run's output.
func removeStaleVCD() {
	if *vcdFlag == "" {
		return
	}
	if err := os.Remove(*vcdFlag); err != nil && !errors.Is(err, os.ErrNotExist) {
		fmt.Fprintf(os.Stderr, "dessim: removing stale %s: %v\n", *vcdFlag, err)
	}
}

// writeVCD dumps the run's output waveforms when -vcd is set. The write
// is temp-then-rename: a failure mid-encode leaves any previous VCD
// intact instead of a truncated one.
func writeVCD(res *core.Result) {
	if *vcdFlag == "" {
		return
	}
	if err := atomicfile.Write(*vcdFlag, func(w io.Writer) error {
		return trace.WriteResultVCD(w, res)
	}); err != nil {
		fatalf("write vcd: %v", err)
	}
	fmt.Printf("waveforms: %s\n", *vcdFlag)
}

// writeTrace drains the flight recorder into the -trace-out file as Chrome
// trace_event JSON. Called on success and on supervised failure (the PR 3
// contract: the trace of an exit-2 run is the one worth keeping), written
// atomically so a crash mid-encode cannot corrupt an earlier trace.
func writeTrace() {
	if recorder == nil {
		return
	}
	if err := atomicfile.Write(*traceFlag, func(w io.Writer) error {
		return obs.WriteChromeTrace(w, recorder.Events())
	}); err != nil {
		fatalf("write trace: %v", err)
	}
	fmt.Printf("trace: %s\n", *traceFlag)
}

// printMetrics dumps the run's uniform metrics map (plus chaos fault
// counts when an injector is installed) when -metrics is set.
func printMetrics(res *core.Result) {
	if injector != nil && res.Metrics != nil {
		res.Metrics.Merge(injector.Stats.Metrics())
	}
	if !*metricsFlag {
		return
	}
	m := res.Metrics
	fmt.Println("metrics:")
	for _, k := range m.Keys() {
		fmt.Printf("  %s=%d\n", k, m[k])
	}
}

func printStats(res *core.Result) {
	if !*statsFlag {
		return
	}
	if res.HJ.Spawns > 0 {
		fmt.Printf("hj runtime: %v\n", res.HJ)
	}
	if res.Galois.Committed > 0 {
		fmt.Printf("galois runtime: %v\n", res.Galois)
	}
	if res.TimeWarp != (core.TWStats{}) {
		fmt.Printf("timewarp: %v\n", res.TimeWarp)
	}
	if res.LP.Partitions > 0 {
		fmt.Printf("lp runtime: %v\n", res.LP)
	}
}
