// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed time from one process, checks every simulation
// against the seq reference (and the cold runs against the levelized
// oracle), and prints every metric with its unit and sample count. The
// last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
//
//	bash perfbench/run.sh --workload kogge64 --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with the benchmark's spans
// off. --trace 1 is the separate traced run: it reports the per-layer
// metrics, prints the ns/event budget and the span self-time table, and
// writes the spans to --out. Every number is taken from outside the
// program: the benchmark times calls into each layer's exported
// functions and reads the counters the program already returns.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"hjdes/internal/core"
)

// endToEnd are the metrics of a --trace 0 run, in print order. Every
// workload reports all of them (see README.md for what each means on
// each workload).
var endToEnd = []string{
	"setup_s",
	"seq.ns_per_event", "hj.ns_per_event", "lp-hj.ns_per_event", "tw-hj.ns_per_event",
	"peak_rss_mb",
	"job.p50_ms", "job.p90_ms", "jobs_per_s",
}

// engineNames are the engines every workload runs, seq first: it is
// the reference every other engine's event counts are checked against.
var engineNames = []string{"seq", "hj", "lp-hj", "tw-hj"}

// perLayer are the metrics of a --trace 1 run, grouped by the module
// (layer) they measure.
var perLayer = func() []string {
	m := []string{
		"circuit.build_ms", "circuit.stimulus_ms", "circuit.gate_eval_ns", "circuit.oracle_ms",
		"queue.deque_ns.hot", "queue.deque_ns.cold", "queue.arena_getput_ns",
		"hj.spawn_ns", "hj.spawn_probe_crashes", "hj.trylock_ns", "hj.finish_idle_us", "hj.runtime_new_ms",
		"hj.spawns_per_kevent", "hj.steals", "hj.parks", "hj.lock_fail_ratio",
		"lp.mailbox_ns.1p", "lp.mailbox_ns.np", "lp.msgs_per_event", "lp.null_ratio", "lp.batch_fill",
		"partition.plan_ms", "partition.edge_cut", "partition.imbalance",
	}
	for _, e := range engineNames {
		m = append(m, e+".cold_ms", e+".allocs_per_event", e+".bytes_per_event",
			e+".cpu_per_wall", e+".budget_residual_ns")
	}
	return append(m,
		"tw.efficiency", "tw.rollbacks_per_event", "tw.antis_per_event",
		"core.pool_getput_us", "core.resilient_overhead_us",
		"obs.trace_overhead",
		"serve.submit_us", "serve.queued_ms", "serve.run_ms", "serve.poll_lag_ms",
		"serve.pool_created", "serve.pool_reused", "serve.rejected",
		"bench.span_overhead",
	)
}()

// metricVal is one reported metric as it appears in the JSON line.
type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects the metrics of one invocation with their sample counts.
type report struct {
	vals  map[string]metricVal
	n     map[string]int
	order []string
}

func newReport() *report { return &report{vals: map[string]metricVal{}, n: map[string]int{}} }

// set records a metric; n is its sample count (0 for a single reading).
func (r *report) set(name string, v float64, unit string, n int) {
	if _, ok := r.vals[name]; !ok {
		r.order = append(r.order, name)
	}
	r.vals[name] = metricVal{Value: v, Unit: unit}
	r.n[name] = n
}

// missing lists the names of want that were not reported, and extra the
// reported names not in want.
func (r *report) diff(want []string) (missing, extra []string) {
	w := map[string]bool{}
	for _, name := range want {
		w[name] = true
		if _, ok := r.vals[name]; !ok {
			missing = append(missing, name)
		}
	}
	for _, name := range r.order {
		if !w[name] {
			extra = append(extra, name)
		}
	}
	return missing, extra
}

func (r *report) print(w io.Writer, names []string) {
	fmt.Fprintln(w, "metrics:")
	for _, name := range names {
		v := r.vals[name]
		fmt.Fprintf(w, "  %-28s %14.4f %-6s n=%d\n", name, v.Value, v.Unit, r.n[name])
	}
}

// ops counts the workload's operations: every timed run, cold run and
// serving job is one, and it fails if it errors or its event counts
// differ from the seq reference.
type ops struct {
	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string
}

// record counts one operation and reports whether it succeeded.
func (o *ops) record(what string, err error) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	if err == nil {
		return true
	}
	o.failed++
	if len(o.errs) < 10 {
		o.errs = append(o.errs, what+": "+err.Error())
	}
	return false
}

// env is what a workload runs with.
type env struct {
	seed    int64
	seconds float64
	traced  bool
	workers int
	tr      *tracer
	root    int64 // the workload span, parent of the top-level spans
	ops     *ops
	rep     *report
	log     io.Writer // human-readable output
	// wrap, when non-nil, wraps every engine a workload builds; the
	// self-tests use it to inject a wrong result.
	wrap func(core.Engine) core.Engine
}

// workloads maps each name to its runner.
var workloads = map[string]func(*env) error{
	"kogge64":     func(e *env) error { return runCircuit(e, kogge64) },
	"mult12":      func(e *env) error { return runCircuit(e, mult12) },
	"serve-short": runServe,
}

// hostStamp fingerprints the host and source a result was measured on.
type hostStamp struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Source     string  `json:"source_sha256"`
	GOGC       string  `json:"gogc"`
}

func stamp(workload string, seed int64, seconds float64, traced bool) hostStamp {
	h := hostStamp{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: traced,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: cpuModel(), Go: runtime.Version(), Commit: "unknown (not a git checkout)",
		Source: sourceDigest("."), GOGC: os.Getenv("GOGC"),
	}
	if h.GOGC == "" {
		h.GOGC = "100 (default)"
	}
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			h.Commit = strings.TrimSpace(string(out))
		}
	}
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes the Go sources and module files under root
// (skipping dot-directories such as .git and the build output), so a
// result names the exact code it measured even outside a git checkout.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(p), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMB is the process's peak resident set (getrusage ru_maxrss,
// which Linux reports in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil)) }

// run executes one invocation and returns the exit code: 0 when every
// operation passed, 1 when any failed (the JSON line is still printed),
// 2 on a usage error or a workload that could not run at all.
func run(args []string, stdout, stderr io.Writer, wrap func(core.Engine) core.Engine) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: kogge64 | mult12 | serve-short")
	seed := fl.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fl.Float64("seconds", 30, "measured time")
	trace := fl.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	outDir := fl.String("out", ".bench_build/perfbench-out", "directory for the result and span files")
	probe := fl.String("probe", "", "run one layer probe (hj.spawn) in this process and print its result")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *probe == "hj.spawn" {
		fmt.Fprintln(stdout, spawnOnce(runtime.GOMAXPROCS(0)))
		return 0
	}
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload kogge64|mult12|serve-short, --seconds > 0, --trace 0|1 (got %q, %v, %d)\n", *name, *seconds, *trace)
		return 2
	}
	traced := *trace == 1
	host := stamp(*name, *seed, *seconds, traced)
	hb, _ := json.Marshal(host)
	fmt.Fprintf(stdout, "host: %s\n", hb)

	e := &env{
		seed: *seed, seconds: *seconds, traced: traced, workers: runtime.GOMAXPROCS(0),
		tr: newTracer(traced), ops: &ops{}, rep: newReport(), log: stdout, wrap: wrap,
	}
	e.root = e.tr.start("workload", 0, *name, 0)
	err := wl(e)
	e.tr.end(e.root)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 2
	}
	want := endToEnd
	if traced {
		want = perLayer
	}
	if missing, extra := e.rep.diff(want); len(missing)+len(extra) > 0 {
		fmt.Fprintf(stderr, "perfbench: %s: metric set mismatch: missing %v, extra %v\n", *name, missing, extra)
		return 2
	}
	e.rep.print(stdout, want)
	fmt.Fprintf(stdout, "operations: attempted=%d failed=%d\n", e.ops.attempted, e.ops.failed)
	for _, msg := range e.ops.errs {
		fmt.Fprintf(stdout, "  FAILED %s\n", msg)
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	base := filepath.Join(*outDir, fmt.Sprintf("%s-seed%d-trace%d", *name, *seed, *trace))
	if traced {
		printSelfTimes(stdout, selfTimes(e.tr.spans))
		if err := e.tr.writeSpans(base+".spans.json", host); err != nil {
			fmt.Fprintf(stderr, "perfbench: write spans: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "spans: %d written to %s.spans.json\n", len(e.tr.spans), base)
	}
	metrics := make(map[string]metricVal, len(want))
	for _, m := range want {
		v := e.rep.vals[m]
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			v.Value = 0 // no passing sample; JSON has no NaN
		}
		metrics[m] = v
	}
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricVal `json:"metrics"`
	}{e.ops.failed == 0 && e.ops.attempted > 0, e.ops.attempted, e.ops.failed, metrics})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	record, _ := json.Marshal(struct {
		Host   hostStamp       `json:"host"`
		Result json.RawMessage `json:"result"`
	}{host, line})
	if err := os.WriteFile(base+".json", record, 0o644); err != nil {
		fmt.Fprintf(stderr, "perfbench: write result: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if e.ops.failed > 0 || e.ops.attempted == 0 {
		return 1
	}
	return 0
}
