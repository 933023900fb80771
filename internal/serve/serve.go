// Package serve is the multi-tenant simulation service behind cmd/dessimd:
// a bounded admission queue with hard backpressure, a fixed-width executor
// pool running every job through core.Resilient, a shared hj runtime pool
// so steady-state dispatch spawns no worker goroutines, one merged
// obs.Registry across all tenants, and a graceful drain that finishes or
// checkpoints in-flight work on SIGTERM.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hjdes/internal/chaos"
	"hjdes/internal/circuit"
	"hjdes/internal/core"
	"hjdes/internal/obs"
)

// Config sizes the service. The zero value is usable: a small queue, one
// executor per CPU, 10s drain grace.
type Config struct {
	// QueueCap bounds the admission queue; a POST arriving with the
	// queue full is rejected with 429 + Retry-After, never blocked.
	// <= 0 means 64.
	QueueCap int
	// Concurrency is the executor count — the hard cap on jobs running
	// simulations at once. <= 0 means GOMAXPROCS (via the runtimes).
	Concurrency int
	// DrainTimeout is the grace Drain gives queued + running jobs before
	// cancelling them (they then checkpoint/interrupt). <= 0 means 10s.
	DrainTimeout time.Duration
	// DefaultTimeout bounds a job attempt when the spec carries no
	// timeout_ms, so no tenant can wedge an executor forever. <= 0
	// means 2 minutes.
	DefaultTimeout time.Duration
	// PoolIdle is the runtime pool's per-shape idle cap (<=0 means 4).
	PoolIdle int
}

func (c Config) queueCap() int {
	if c.QueueCap <= 0 {
		return 64
	}
	return c.QueueCap
}

func (c Config) concurrency() int {
	if c.Concurrency <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Concurrency
}

func (c Config) drainTimeout() time.Duration {
	if c.DrainTimeout <= 0 {
		return 10 * time.Second
	}
	return c.DrainTimeout
}

func (c Config) defaultTimeout() time.Duration {
	if c.DefaultTimeout <= 0 {
		return 2 * time.Minute
	}
	return c.DefaultTimeout
}

// Server is one service instance. Create with New, mount Handler on an
// http.Server, stop with Drain.
type Server struct {
	cfg  Config
	reg  *obs.Registry     // shared across all jobs: the /metrics truth
	pool *core.RuntimePool // shared hj runtimes (Options.Runtime)

	admitMu  sync.Mutex // guards queue send vs close (drain)
	queue    chan *job
	draining atomic.Bool

	jobsMu sync.Mutex
	jobs   map[string]*job
	order  []string // admission order, for GET /jobs
	nextID int64

	runCtx    context.Context // cancelled when the drain grace expires
	runCancel context.CancelFunc
	execWG    sync.WaitGroup

	running atomic.Int64 // jobs currently executing
}

// New builds a server and starts its executor pool.
func New(cfg Config) *Server {
	s := &Server{
		cfg:  cfg,
		reg:  obs.NewRegistry(0),
		pool: core.NewRuntimePool(cfg.PoolIdle),
		jobs: make(map[string]*job),
	}
	s.queue = make(chan *job, cfg.queueCap())
	s.runCtx, s.runCancel = context.WithCancel(context.Background())
	for i := 0; i < cfg.concurrency(); i++ {
		s.execWG.Add(1)
		go s.executor(i)
	}
	return s
}

// Registry exposes the shared metrics registry (tests assert on it).
func (s *Server) Registry() *obs.Registry { return s.reg }

// PoolStats exposes the runtime pool counters (tests assert reuse).
func (s *Server) PoolStats() core.RuntimePoolStats { return s.pool.Stats() }

// executor pulls admitted jobs until the queue is closed and drained.
// The executor index shards the service counters/histograms.
func (s *Server) executor(shard int) {
	defer s.execWG.Done()
	for j := range s.queue {
		s.running.Add(1)
		s.runJob(shard, j)
		s.running.Add(-1)
	}
}

// poolable reports whether a job may run on a shared pooled runtime.
// Trace and chaos wire per-run hooks into the runtime at construction,
// and only the hj family (including the fused lp-hj engine, also named
// "lp", and tw-hj, whose clean runs leave the runtime quiescent)
// consults Options.Runtime at all; hj-steal1 changes the runtime's steal
// policy, so it builds its own.
func poolable(spec JobSpec) bool {
	if spec.Trace || spec.Chaos != "" {
		return false
	}
	switch spec.Engine {
	case "hj", "hj-noaff", "lp", "lp-hj", "tw-hj":
		return true
	}
	return false
}

// runJob executes one admitted job through the resilient envelope.
func (s *Server) runJob(shard int, j *job) {
	j.markRunning()
	start := time.Now()
	s.reg.Histogram("serve.queue_ms").Observe(shard, float64(start.Sub(j.submitted))/float64(time.Millisecond))

	fail := func(err error) {
		j.markFailed(err)
		s.reg.Counter("serve.failed").Inc(shard)
	}

	opts := core.Options{
		Workers:         j.spec.Workers,
		Partitions:      j.spec.Partitions,
		DiscardOutputs:  true,
		CheckpointEvery: j.spec.CheckpointEvery,
		Metrics:         s.reg,
	}
	var rec *obs.Recorder
	if j.spec.Trace {
		rec = obs.NewRecorder(0)
		opts.Trace = rec
	}
	if poolable(j.spec) {
		// Steady-state dispatch: run on a shared runtime, return it to
		// the pool after the Quiescent leak check (Put discards poisoned
		// runtimes itself, so a canceled job can't contaminate the next).
		rt := s.pool.Get(j.spec.Workers)
		opts.Runtime = rt
		defer func() { s.pool.Put(rt) }()
	}

	if j.spec.Chaos != "" {
		ccfg, err := chaos.ParseSpec(j.spec.Chaos)
		if err != nil {
			fail(err)
			return
		}
		opts.Chaos = chaos.New(ccfg).Hooks()
	}
	eng, err := core.NewEngine(j.spec.Engine, opts)
	if err != nil { // validated at admission; registry is append-only
		fail(err)
		return
	}

	timeout := s.cfg.defaultTimeout()
	if j.spec.TimeoutMS > 0 {
		timeout = time.Duration(j.spec.TimeoutMS) * time.Millisecond
	}
	var store *core.CheckpointStore
	if j.spec.CheckpointEvery > 0 {
		store = core.NewCheckpointStore()
		j.mu.Lock()
		j.store = store
		j.mu.Unlock()
	}
	rcfg := core.ResilientConfig{
		Supervise: core.SuperviseConfig{Timeout: timeout, Checkpoints: store},
		Retry:     core.RetryPolicy{Retries: j.spec.Retries, Seed: j.spec.Seed},
		Fallback:  j.spec.Fallback,
		Options:   opts,
	}

	res, err := core.Resilient(s.runCtx, eng, j.c, j.stim, rcfg)
	if rec != nil {
		j.mu.Lock()
		j.traceEv = rec.Events()
		j.mu.Unlock()
	}
	s.reg.Histogram("serve.job_ms").Observe(shard, float64(time.Since(start))/float64(time.Millisecond))
	switch {
	case err == nil:
		j.markDone(res)
		s.reg.Counter("serve.completed").Inc(shard)
	case errors.Is(err, context.Canceled) && s.draining.Load():
		// The drain grace expired; the §13 checkpoint (if any) is the
		// resume point a resubmission would pick up from.
		j.markInterrupted(err)
		s.reg.Counter("serve.interrupted").Inc(shard)
	default:
		fail(err)
	}
}

// Submit validates and admits a job, returning its id. It never blocks:
// a full queue returns ErrQueueFull, a draining server ErrDraining.
func (s *Server) Submit(spec JobSpec) (string, error) {
	c, err := spec.validate()
	if err != nil {
		return "", &BadSpecError{Err: err}
	}
	period := c.SettleTime() + 10
	stim := circuit.RandomStimulus(c, spec.Waves, period, spec.Seed)

	j := &job{
		spec:      spec,
		c:         c,
		stim:      stim,
		status:    StatusQueued,
		submitted: time.Now(),
	}

	s.admitMu.Lock()
	if s.draining.Load() {
		s.admitMu.Unlock()
		return "", ErrDraining
	}
	select {
	case s.queue <- j:
	default:
		s.admitMu.Unlock()
		s.reg.Counter("serve.rejected").Inc(0)
		return "", ErrQueueFull
	}
	// Register under admitMu so the id exists before any client can
	// learn it, and ids stay in admission order.
	s.jobsMu.Lock()
	s.nextID++
	j.id = fmt.Sprintf("j-%06d", s.nextID)
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.jobsMu.Unlock()
	s.admitMu.Unlock()
	s.reg.Counter("serve.admitted").Inc(0)
	return j.id, nil
}

// Sentinel admission errors, mapped to HTTP statuses by the handlers.
var (
	ErrQueueFull = errors.New("serve: admission queue full")
	ErrDraining  = errors.New("serve: server draining, not admitting")
)

// BadSpecError wraps a spec validation failure (HTTP 400).
type BadSpecError struct{ Err error }

func (e *BadSpecError) Error() string { return e.Err.Error() }
func (e *BadSpecError) Unwrap() error { return e.Err }

// Job returns the view of one job, or false.
func (s *Server) Job(id string) (JobView, bool) {
	s.jobsMu.Lock()
	j, ok := s.jobs[id]
	s.jobsMu.Unlock()
	if !ok {
		return JobView{}, false
	}
	return j.view(), true
}

// Jobs lists every known job in admission order.
func (s *Server) Jobs() []JobView {
	s.jobsMu.Lock()
	ids := append([]string(nil), s.order...)
	js := make([]*job, len(ids))
	for i, id := range ids {
		js[i] = s.jobs[id]
	}
	s.jobsMu.Unlock()
	out := make([]JobView, len(js))
	for i, j := range js {
		out[i] = j.view()
	}
	return out
}

// TraceEvents returns the drained flight-recorder events of a finished
// traced job (nil when the job is unknown, untraced, or still running).
func (s *Server) TraceEvents(id string) []obs.Event {
	s.jobsMu.Lock()
	j, ok := s.jobs[id]
	s.jobsMu.Unlock()
	if !ok {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.traceEv
}

// MetricsView is the GET /metrics payload: the shared registry snapshot
// merged across every job that ever ran, plus live service gauges.
type MetricsView struct {
	Counters obs.Metrics                 `json:"counters"`
	Hists    map[string]obs.HistSnapshot `json:"hists,omitempty"`
	Service  ServiceStats                `json:"service"`
}

// ServiceStats are the service-level gauges (not part of the registry:
// they are instantaneous states, not monotone counters).
type ServiceStats struct {
	QueueDepth  int                   `json:"queue_depth"`
	QueueCap    int                   `json:"queue_cap"`
	Running     int                   `json:"running"`
	Concurrency int                   `json:"concurrency"`
	Draining    bool                  `json:"draining"`
	Jobs        map[string]int        `json:"jobs"` // status -> count
	Pool        core.RuntimePoolStats `json:"pool"`
}

// Metrics snapshots the shared registry and the live gauges.
func (s *Server) Metrics() MetricsView {
	snap := s.reg.Snapshot()
	s.pool.Stats().MetricsInto(snap.Counters)
	byStatus := make(map[string]int)
	s.jobsMu.Lock()
	for _, j := range s.jobs {
		j.mu.Lock()
		byStatus[j.status]++
		j.mu.Unlock()
	}
	s.jobsMu.Unlock()
	return MetricsView{
		Counters: snap.Counters,
		Hists:    snap.Hists,
		Service: ServiceStats{
			QueueDepth:  len(s.queue),
			QueueCap:    cap(s.queue),
			Running:     int(s.running.Load()),
			Concurrency: s.cfg.concurrency(),
			Draining:    s.draining.Load(),
			Jobs:        byStatus,
			Pool:        s.pool.Stats(),
		},
	}
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain stops admission, lets queued and running jobs finish within the
// configured grace, then cancels the stragglers (they surface
// context.Canceled promptly and are recorded as interrupted, with their
// latest checkpoint segment visible in the job view). It returns once
// every executor has exited and the runtime pool is shut down — the
// clean-exit point for SIGTERM. Safe to call more than once.
func (s *Server) Drain() {
	s.admitMu.Lock()
	first := !s.draining.Swap(true)
	if first {
		close(s.queue)
	}
	s.admitMu.Unlock()
	if !first {
		return
	}
	done := make(chan struct{})
	go func() {
		s.execWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(s.cfg.drainTimeout()):
		s.runCancel()
		<-done
	}
	s.runCancel() // release the context either way
	s.pool.Close()
}

// ---- HTTP layer -------------------------------------------------------

// Handler mounts the service API (Go 1.22 method+pattern routing):
//
//	POST /jobs        admit a JobSpec  -> 202 {"id": ...} | 400 | 429 | 503
//	GET  /jobs        list all jobs
//	GET  /jobs/{id}   one job's status/result
//	GET  /metrics     merged registry snapshot + service gauges
//	GET  /trace/{id}  Chrome trace JSON of a finished traced job
//	GET  /healthz     200 ("ok") | 503 ("draining")
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleJobs)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /trace/{id}", s.handleTrace)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

type errBody struct {
	Error string `json:"error"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, errBody{Error: "bad job spec: " + err.Error()})
		return
	}
	id, err := s.Submit(spec)
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, struct {
			ID string `json:"id"`
		}{ID: id})
	case errors.Is(err, ErrQueueFull):
		// Hard backpressure: the client owns the retry. The hint scales
		// with how much work is ahead of it.
		hint := 1 + len(s.queue)/(2*s.cfg.concurrency())
		w.Header().Set("Retry-After", strconv.Itoa(hint))
		writeJSON(w, http.StatusTooManyRequests, errBody{Error: err.Error()})
	case errors.Is(err, ErrDraining):
		writeJSON(w, http.StatusServiceUnavailable, errBody{Error: err.Error()})
	default:
		writeJSON(w, http.StatusBadRequest, errBody{Error: err.Error()})
	}
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Jobs())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	v, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errBody{Error: "no such job"})
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	v, ok := s.Job(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errBody{Error: "no such job"})
		return
	}
	if !v.Trace {
		writeJSON(w, http.StatusConflict, errBody{Error: "job was not traced (submit with \"trace\": true)"})
		return
	}
	ev := s.TraceEvents(id)
	if ev == nil {
		writeJSON(w, http.StatusConflict, errBody{Error: "trace not ready: job still queued or running"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	sort.SliceStable(ev, func(a, b int) bool { return ev[a].TS < ev[b].TS })
	obs.WriteChromeTrace(w, ev)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}
