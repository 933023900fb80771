package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hjdes/internal/circuit"
	"hjdes/internal/core"
	"hjdes/internal/cspec"
	"hjdes/internal/serve"
)

// serveCase is one job of the serve-short mix with the event count seq
// gives on the same circuit, waves and seed.
type serveCase struct {
	spec serve.JobSpec
	ref  int64
}

// jobShapes are the (circuit, waves) sizes of the serve-short mix. Every
// engine runs every shape, so the seed changes the inputs but not the
// sizes. tw-hj jobs (unbounded window: the job spec has none) always
// run the first, smallest shape to stay short.
var jobShapes = []struct {
	circuit string
	waves   int
}{
	{"koggestone-16", 2}, {"koggestone-32", 2}, {"koggestone-16", 4},
	{"koggestone-32", 4}, {"koggestone-16", 6}, {"koggestone-32", 6},
	{"koggestone-16", 8}, {"koggestone-32", 8}, {"koggestone-32", 3},
}

// numCases is the length of the serve-short job mix: every engine on
// every shape. Every ninth job (one of each engine) is traced.
var numCases = len(engineNames) * len(jobShapes)

// serveCases generates the serve-short job mix; seed draws each job's
// stimulus seed.
func serveCases(seed int64, workers int) []serveCase {
	rng := rand.New(rand.NewSource(seed))
	cases := make([]serveCase, numCases)
	for i := range cases {
		shape := jobShapes[i/len(engineNames)]
		s := serve.JobSpec{
			Engine:  engineNames[i%len(engineNames)],
			Circuit: shape.circuit,
			Waves:   shape.waves,
			Seed:    rng.Int63n(1<<30) + 1,
			Workers: workers,
			Trace:   i%9 == 5,
		}
		if s.Engine == "tw-hj" {
			s.Circuit, s.Waves = jobShapes[0].circuit, jobShapes[0].waves
		}
		cases[i].spec = s
	}
	return cases
}

// seqEvents is the reference event count of a job: seq on the stimulus
// the server builds for the spec.
func seqEvents(spec serve.JobSpec) (int64, error) {
	c, err := cspec.Build(spec.Circuit)
	if err != nil {
		return 0, err
	}
	stim := circuit.RandomStimulus(c, spec.Waves, c.SettleTime()+10, spec.Seed)
	eng, err := core.NewEngine("seq", core.Options{DiscardOutputs: true})
	if err != nil {
		return 0, err
	}
	res, err := eng.Run(c, stim)
	if err != nil {
		return 0, err
	}
	return res.TotalEvents, nil
}

// server is an in-process dessimd on loopback with its client.
type server struct {
	srv  *serve.Server
	http *http.Server
	base string
	hc   *http.Client
	done chan struct{}
}

// startServer starts serve.New + Handler on a loopback port. One
// executor running jobs with all workers keeps executors x job workers
// at nproc; the client keeps at most nproc connections.
func startServer(workers int) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: serve.New(serve.Config{Concurrency: 1, QueueCap: 64}), done: make(chan struct{})}
	s.http = &http.Server{Handler: s.srv.Handler()}
	s.base = "http://" + ln.Addr().String()
	s.hc = &http.Client{Transport: &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers}}
	go func() {
		defer close(s.done)
		s.http.Serve(ln)
	}()
	return s, nil
}

// stop drains the service and closes the listener and every connection,
// returning once the serving goroutine has exited.
func (s *server) stop() {
	s.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.http.Shutdown(ctx)
	<-s.done
	s.hc.CloseIdleConnections()
}

// outcome is one job as the client saw it.
type outcome struct {
	engine   string
	spans    bool    // submitted with the benchmark's spans on
	traced   bool    // the job spec set trace
	latMS    float64 // submit to done, client-observed
	submitUS float64
	view     serve.JobView
}

// nsPerEvent is the engine's own run time per event, from the job result.
func (o outcome) nsPerEvent() float64 {
	return o.view.Result.ElapsedMS * 1e6 / float64(o.view.Result.Events)
}

// do submits one job and polls until it finishes, inside spans sharing
// the job id: job > {serve.submit, serve.wait}.
func (s *server) do(t *tracer, parent, jobID int64, jc serveCase) (outcome, error) {
	o := outcome{engine: jc.spec.Engine, traced: jc.spec.Trace, spans: t.on}
	body, err := json.Marshal(jc.spec)
	if err != nil {
		return o, err
	}
	root := t.start("job", parent, jc.spec.Engine, jobID)
	defer t.end(root)
	t0 := time.Now()
	sid := t.start("serve.submit", root, "", jobID)
	resp, err := s.hc.Post(s.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.end(sid)
		return o, err
	}
	var acc struct {
		ID    string `json:"id"`
		Error string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&acc)
	resp.Body.Close()
	o.submitUS = float64(time.Since(t0).Nanoseconds()) / 1e3
	t.end(sid)
	if err != nil {
		return o, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return o, fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, acc.Error)
	}
	wid := t.start("serve.wait", root, "", jobID)
	defer t.end(wid)
	poll := 100 * time.Microsecond
	for {
		time.Sleep(poll)
		poll = min(2*poll, 2*time.Millisecond)
		resp, err := s.hc.Get(s.base + "/jobs/" + acc.ID)
		if err != nil {
			return o, err
		}
		o.view = serve.JobView{}
		err = json.NewDecoder(resp.Body).Decode(&o.view)
		resp.Body.Close()
		if err != nil {
			return o, err
		}
		switch o.view.Status {
		case serve.StatusQueued, serve.StatusRunning:
			continue
		case serve.StatusDone:
			o.latMS = float64(time.Since(t0).Nanoseconds()) / 1e6
			if o.view.Result == nil || o.view.Result.Events != jc.ref {
				return o, fmt.Errorf("job %s (%s %s): events %v, seq reference %d", acc.ID, jc.spec.Engine, jc.spec.Circuit, o.view.Result, jc.ref)
			}
			return o, nil
		default:
			return o, fmt.Errorf("job %s (%s %s): status %s: %s", acc.ID, jc.spec.Engine, jc.spec.Circuit, o.view.Status, o.view.Error)
		}
	}
}

// serveSetup builds the job mix and its references, starts a server and
// runs one warm-up job per engine through it.
func serveSetup(e *env, parent int64) ([]serveCase, *server, error) {
	cases := serveCases(e.seed, e.workers)
	var err error
	timeIt(e.tr, "verify.reference", parent, "seq", func() {
		for i := range cases {
			if cases[i].ref, err = seqEvents(cases[i].spec); err != nil {
				return
			}
		}
	})
	if err != nil {
		return nil, nil, err
	}
	var s *server
	timeIt(e.tr, "serve.start", parent, "", func() { s, err = startServer(e.workers) })
	if err != nil {
		return nil, nil, err
	}
	for i := range engineNames {
		_, err := s.do(e.tr, parent, int64(-1-i), cases[i])
		e.ops.record("warm-up job", err)
	}
	return cases, s, nil
}

// closedLoop runs nproc clients, each submitting its next job only after
// the previous one finished, until budget; the job sequence cycles
// through cases. With spans set, every other cycle through the mix runs
// with the benchmark's spans on.
func closedLoop(e *env, s *server, cases []serveCase, budget time.Duration, spans bool) ([]outcome, time.Duration) {
	off := newTracer(false)
	var next atomic.Int64
	var mu sync.Mutex
	var outs []outcome
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(budget)
	for c := 0; c < e.workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				t := off
				if spans && (i/int64(numCases))%2 == 1 {
					t = e.tr
				}
				o, err := s.do(t, e.root, i+1, cases[i%int64(numCases)])
				if e.ops.record("job", err) {
					mu.Lock()
					outs = append(outs, o)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return outs, time.Since(start)
}

// runServe is the serve-short workload.
func runServe(e *env) error {
	var secs []float64
	var cases []serveCase
	var s *server
	for i := 0; i < setups; i++ {
		if s != nil {
			s.stop()
		}
		runtime.GC()
		id := e.tr.start("setup", e.root, "", 0)
		t0 := time.Now()
		var err error
		cases, s, err = serveSetup(e, id)
		secs = append(secs, time.Since(t0).Seconds())
		e.tr.end(id)
		if err != nil {
			return err
		}
	}
	defer s.stop()
	budget := time.Duration(e.seconds * float64(time.Second))
	if e.traced {
		return tracedServe(e, s, cases, budget)
	}
	outs, elapsed := closedLoop(e, s, cases, budget, false)

	e.rep.set("setup_s", median(secs), "s", len(secs))
	byEngine := map[string][]float64{}
	var lat []float64
	for _, o := range outs {
		lat = append(lat, o.latMS)
		if !o.traced {
			byEngine[o.engine] = append(byEngine[o.engine], o.nsPerEvent())
		}
	}
	for _, name := range engineNames {
		e.rep.set(name+".ns_per_event", median(byEngine[name]), "ns", len(byEngine[name]))
	}
	e.rep.set("peak_rss_mb", peakRSSMB(), "MB", 1)
	return reportJobs(e, lat, float64(len(lat))/elapsed.Seconds())
}

// probeConfig is the circuit the serve-short traced run measures the
// engine layers on: the larger job adder, engines configured as jobs
// run them (K = workers, unbounded tw-hj window).
var probeConfig = circuitConfig{spec: "koggestone-32", waves: 8, twWaves: 2, kPerWorker: 1}

// tracedServe is the --trace 1 run of serve-short: the layer
// micro-benchmarks and engine layers on the probe circuit for a third
// of the time, then the closed loop with spans on every other cycle.
func tracedServe(e *env, s *server, cases []serveCase, budget time.Duration) error {
	st, _, err := setupRepeated(e, probeConfig)
	if err != nil {
		return err
	}
	lc, err := measureLayers(e, st.c)
	if err != nil {
		return err
	}
	if _, err := engineLayers(e, st, budget/3, lc); err != nil {
		return err
	}
	outs, _ := closedLoop(e, s, cases, budget-budget/3, true)
	var on, offLat []float64
	for _, o := range outs {
		if o.spans {
			on = append(on, o.latMS)
		} else {
			offLat = append(offLat, o.latMS)
		}
	}
	if len(on) == 0 || len(offLat) == 0 {
		return errors.New("closed loop finished no full cycle with spans on and off")
	}
	over := median(on)/median(offLat) - 1
	fmt.Fprintf(e.log, "tracing overhead of the benchmark's own spans (serve-short jobs): untraced p50 %.3f ms (n=%d), traced p50 %.3f ms (n=%d), overhead %.2f%%\n",
		median(offLat), len(offLat), median(on), len(on), 100*over)
	e.rep.set("bench.span_overhead", over, "ratio", len(outs))
	return serveLayer(e, s, outs)
}

// serveProbe runs a few one-wave jobs of the workload circuit through an
// in-process server, one at a time, for the serve layer metrics of a
// circuit workload.
func serveProbe(e *env, spec string) error {
	s, err := startServer(e.workers)
	if err != nil {
		return err
	}
	defer s.stop()
	var outs []outcome
	for i := 0; i < 6; i++ {
		jc := serveCase{spec: serve.JobSpec{Circuit: spec, Engine: engineNames[i%3], Waves: 1, Seed: e.seed, Workers: e.workers}}
		if jc.ref, err = seqEvents(jc.spec); err != nil {
			return err
		}
		o, err := s.do(e.tr, e.root, int64(i+1), jc)
		if e.ops.record("probe job", err) {
			outs = append(outs, o)
		}
	}
	return serveLayer(e, s, outs)
}

// serveLayer reports the serve layer metrics of finished jobs.
func serveLayer(e *env, s *server, outs []outcome) error {
	if len(outs) == 0 {
		return errors.New("no job finished")
	}
	var sub, q, r, lag []float64
	for _, o := range outs {
		sub = append(sub, o.submitUS)
		q = append(q, o.view.QueuedMS)
		r = append(r, o.view.RunMS)
		lag = append(lag, o.latMS-o.view.QueuedMS-o.view.RunMS)
	}
	n := len(outs)
	e.rep.set("serve.submit_us", median(sub), "us", n)
	e.rep.set("serve.queued_ms", median(q), "ms", n)
	e.rep.set("serve.run_ms", median(r), "ms", n)
	e.rep.set("serve.poll_lag_ms", median(lag), "ms", n)
	ps := s.srv.PoolStats()
	e.rep.set("serve.pool_created", float64(ps.Created), "count", 1)
	e.rep.set("serve.pool_reused", float64(ps.Reused), "count", 1)
	e.rep.set("serve.rejected", float64(s.srv.Metrics().Counters["serve.rejected"]), "count", 1)
	return nil
}
