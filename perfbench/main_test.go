package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"hjdes/internal/circuit"
	"hjdes/internal/core"
)

// TestMain lets the test binary serve the benchmark's child-process
// probes (perfbench --probe ...), which re-execute os.Executable().
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "--probe" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
	}
	os.Exit(m.Run())
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkJSON is the part of ../BENCHMARK.json the tests compare
// against the program.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
		Bound      float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range append(append([]string{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("metric name %q used twice", name)
		}
		seen[name] = true
	}
	b := loadBenchmarkJSON(t)
	var e2e, layer, wl []string
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range b.PerLayer {
		layer = append(layer, m.Name)
	}
	for _, w := range b.Workloads {
		wl = append(wl, w.Name)
	}
	same := func(what string, got, want []string) {
		g, w := append([]string{}, got...), append([]string{}, want...)
		sort.Strings(g)
		sort.Strings(w)
		if strings.Join(g, " ") != strings.Join(w, " ") {
			t.Errorf("BENCHMARK.json %s = %v, program has %v", what, g, w)
		}
	}
	same("end_to_end", e2e, endToEnd)
	same("per_layer", layer, perLayer)
	var names []string
	for name := range workloads {
		names = append(names, name)
	}
	same("workloads", wl, names)
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // descending, so percentile must sort
		}
		return s
	}
	for _, c := range []struct {
		n    int
		p    float64
		ok   bool
		want float64
	}{
		{99, 90, false, 90}, {100, 90, true, 90}, {250, 90, true, 225},
		{19, 50, false, 10}, {20, 50, true, 10}, {999, 99, false, 990},
	} {
		v, ok := percentile(xs(c.n), c.p)
		if ok != c.ok || v != c.want {
			t.Errorf("percentile(n=%d, p%v) = %v, %v; want %v, %v", c.n, c.p, v, ok, c.want, c.ok)
		}
	}
}

func TestSelfTimeSubtractsMergedChildren(t *testing.T) {
	st := selfTimes([]span{
		{ID: 1, Name: "root", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "a", Start: 2, End: 4},
		{ID: 3, Parent: 1, Name: "a", Start: 3, End: 6},
		{ID: 4, Parent: 1, Name: "b", Start: 8, End: 9},
	})
	got := map[string]selfStat{}
	for _, s := range st {
		got[s.Name] = s
	}
	if r := got["root"]; r.SelfUS != 5 || r.TotalUS != 10 {
		t.Errorf("root self/total = %v/%v, want 5/10", r.SelfUS, r.TotalUS)
	}
	if a := got["a"]; a.Count != 2 || a.SelfUS != 5 {
		t.Errorf("a count/self = %d/%v, want 2/5", a.Count, a.SelfUS)
	}
}

// tiny is a circuit workload small enough for tests.
var tiny = circuitConfig{spec: "koggestone-8", waves: 4, twWaves: 2, twWindow: 16, kPerWorker: 1}

// corrupt reports one event too many on every run.
type corrupt struct {
	core.Engine
	runs *atomic.Int64
}

func (c corrupt) Run(ci *circuit.Circuit, s *circuit.Stimulus) (*core.Result, error) {
	res, err := c.Engine.Run(ci, s)
	c.runs.Add(1)
	if res != nil {
		res.TotalEvents++
	}
	return res, err
}

type result struct {
	Correct           bool
	Attempted, Failed int
	Metrics           map[string]metricVal
}

func runTiny(t *testing.T, args []string, wrap func(core.Engine) core.Engine) (int, result, string) {
	t.Helper()
	workloads["tiny"] = func(e *env) error { return runCircuit(e, tiny) }
	defer delete(workloads, "tiny")
	var out, errb bytes.Buffer
	code := run(append([]string{"--workload", "tiny", "--seed", "3", "--out", t.TempDir()}, args...), &out, &errb, wrap)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result (exit %d): %v\nstdout:\n%s\nstderr:\n%s", code, err, out.String(), errb.String())
	}
	return code, r, out.String()
}

func TestCleanRunPassesWithEveryEndToEndMetric(t *testing.T) {
	code, r, _ := runTiny(t, []string{"--seconds", "1"}, nil)
	if code != 0 || !r.Correct || r.Failed != 0 || r.Attempted < 100 {
		t.Fatalf("exit %d, correct %v, attempted %d, failed %d", code, r.Correct, r.Attempted, r.Failed)
	}
	units := map[string]string{}
	for _, m := range loadBenchmarkJSON(t).EndToEnd {
		units[m.Name] = m.Unit
	}
	for _, name := range endToEnd {
		m, ok := r.Metrics[name]
		if !ok || m.Value <= 0 || m.Unit != units[name] {
			t.Errorf("%s = %+v (present %v), want a positive value in %q", name, m, ok, units[name])
		}
	}
}

func TestWrongEventCountIsAFailedOperation(t *testing.T) {
	var hjRuns atomic.Int64
	wrap := func(e core.Engine) core.Engine {
		if e.Name() == "hj" {
			return corrupt{e, &hjRuns}
		}
		return e
	}
	code, r, out := runTiny(t, []string{"--seconds", "1"}, wrap)
	if code != 1 || r.Correct {
		t.Errorf("exit %d, correct %v; want exit 1, correct false", code, r.Correct)
	}
	// Every hj run (cold and timed) is attempted and failed, none dropped.
	if int64(r.Failed) != hjRuns.Load() || r.Failed == 0 || r.Attempted <= r.Failed {
		t.Errorf("failed %d of %d attempted; the corrupted engine ran %d times", r.Failed, r.Attempted, hjRuns.Load())
	}
	if !strings.Contains(out, "FAILED hj") {
		t.Errorf("no failure line for hj in output:\n%s", out)
	}
}

func TestTracedRunReportsEveryPerLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every layer micro-benchmark")
	}
	code, r, out := runTiny(t, []string{"--seconds", "1", "--trace", "1"}, nil)
	if code != 0 || !r.Correct {
		t.Fatalf("exit %d, correct %v", code, r.Correct)
	}
	units := map[string]string{}
	for _, m := range loadBenchmarkJSON(t).PerLayer {
		units[m.Name] = m.Unit
	}
	for _, name := range perLayer {
		if m, ok := r.Metrics[name]; !ok || m.Unit != units[name] {
			t.Errorf("%s = %+v (present %v), want unit %q", name, m, ok, units[name])
		}
	}
	for _, want := range []string{"ns/event budget: hj", "residual", "span self time:", "engine.cold_run", "tracing overhead"} {
		if !strings.Contains(out, want) {
			t.Errorf("traced output lacks %q", want)
		}
	}
}

func TestServeShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs an in-process server")
	}
	seconds := "1"
	if raceOn {
		seconds = "10"
	}
	var out, errb bytes.Buffer
	code := run([]string{"--workload", "serve-short", "--seed", "5", "--seconds", seconds, "--out", t.TempDir()}, &out, &errb, nil)
	if code != 0 {
		t.Fatalf("exit %d\n%s\n%s", code, out.String(), errb.String())
	}
}
