package serve

import (
	"fmt"
	"sync"
	"time"

	"hjdes/internal/circuit"
	"hjdes/internal/core"
	"hjdes/internal/cspec"
	"hjdes/internal/obs"
)

// JobSpec is the POST /jobs request body: one simulation job. Circuit
// and Engine are required; everything else defaults to a plain bounded
// run. The spec deliberately mirrors dessim's flags, so anything
// reproducible at the CLI is reproducible through the service.
type JobSpec struct {
	Circuit string `json:"circuit"`           // cspec grammar, e.g. "koggestone-64"
	Engine  string `json:"engine"`            // registry name, e.g. "hj" | "lp" | "seq"
	Waves   int    `json:"waves,omitempty"`   // random input waves (default 10)
	Seed    int64  `json:"seed,omitempty"`    // stimulus seed (default 1)
	Workers int    `json:"workers,omitempty"` // parallel engines (0 = GOMAXPROCS)
	// Partitions is the lp engine's logical-process count (0 = workers).
	Partitions int `json:"partitions,omitempty"`
	// TimeoutMS bounds each supervised attempt; 0 applies the server's
	// default so no job can wedge an executor forever.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Retries / Fallback / CheckpointEvery configure the resilient
	// envelope, exactly like dessim -retries/-fallback/-checkpoint-every.
	Retries         int      `json:"retries,omitempty"`
	Fallback        []string `json:"fallback,omitempty"`
	CheckpointEvery int      `json:"checkpoint_every,omitempty"`
	// Chaos is a fault-injection spec (chaos.ParseSpec grammar; each
	// engine takes the faults it has injection sites for). Chaotic jobs
	// always run on a private runtime, never a pooled one.
	Chaos string `json:"chaos,omitempty"`
	// Trace attaches a flight recorder; the drained events are served as
	// Chrome trace JSON at /trace/{id} after the job finishes.
	Trace bool `json:"trace,omitempty"`
}

// maxWaves bounds a single job's stimulus so one spec cannot exhaust the
// server's memory ("waves": 2000000000 is a client bug, not a workload).
const maxWaves = 100000

// validate normalizes defaults and rejects specs the scheduler would
// choke on. It builds the circuit (reported errors carry the cspec
// grammar) but resolves the engine name only against the registry.
func (spec *JobSpec) validate() (*circuit.Circuit, error) {
	if spec.Circuit == "" {
		return nil, fmt.Errorf("missing circuit (known: %v)", cspec.Known())
	}
	if spec.Engine == "" {
		return nil, fmt.Errorf("missing engine (known: %v)", core.EngineNames())
	}
	if _, err := core.NewEngine(spec.Engine, core.Options{}); err != nil {
		return nil, err
	}
	for _, fb := range spec.Fallback {
		if _, err := core.NewEngine(fb, core.Options{}); err != nil {
			return nil, fmt.Errorf("fallback: %w", err)
		}
	}
	if spec.Waves <= 0 {
		spec.Waves = 10
	}
	if spec.Waves > maxWaves {
		return nil, fmt.Errorf("waves %d exceeds limit %d", spec.Waves, maxWaves)
	}
	if spec.Seed == 0 {
		spec.Seed = 1
	}
	if spec.Workers < 0 || spec.Workers > 256 {
		return nil, fmt.Errorf("workers %d out of range [0,256]", spec.Workers)
	}
	if spec.Partitions < 0 || spec.Partitions > 1024 {
		return nil, fmt.Errorf("partitions %d out of range [0,1024]", spec.Partitions)
	}
	if spec.TimeoutMS < 0 {
		return nil, fmt.Errorf("timeout_ms %d negative", spec.TimeoutMS)
	}
	if spec.Retries < 0 || spec.Retries > 16 {
		return nil, fmt.Errorf("retries %d out of range [0,16]", spec.Retries)
	}
	if spec.CheckpointEvery < 0 {
		return nil, fmt.Errorf("checkpoint_every %d negative", spec.CheckpointEvery)
	}
	c, err := cspec.Build(spec.Circuit)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Job lifecycle states reported by GET /jobs/{id}.
const (
	StatusQueued  = "queued"
	StatusRunning = "running"
	StatusDone    = "done"
	StatusFailed  = "failed"
	// StatusInterrupted marks a job the graceful drain stopped mid-run;
	// when the job ran with checkpointing, CheckpointSeg in the view says
	// which segment a resubmission would resume from.
	StatusInterrupted = "interrupted"
)

// JobResult is the success payload of a finished job.
type JobResult struct {
	Engine    string      `json:"engine"` // engine that produced the result (fallback on degraded runs)
	Workers   int         `json:"workers"`
	Events    int64       `json:"events"`
	ElapsedMS float64     `json:"elapsed_ms"`
	Attempts  int         `json:"attempts"`
	Degraded  bool        `json:"degraded"`
	Metrics   obs.Metrics `json:"metrics,omitempty"`
}

// JobView is the GET /jobs/{id} response.
type JobView struct {
	ID       string     `json:"id"`
	Status   string     `json:"status"`
	Spec     JobSpec    `json:"spec"`
	Result   *JobResult `json:"result,omitempty"`
	Error    string     `json:"error,omitempty"`
	QueuedMS float64    `json:"queued_ms"`         // admission -> start (or now)
	RunMS    float64    `json:"run_ms,omitempty"`  // start -> finish (or now)
	Trace    bool       `json:"trace"`             // /trace/{id} will serve this job
	Resumes  int64      `json:"resumes,omitempty"` // attempts resumed from a checkpoint
	Ckpt     int64      `json:"checkpoints,omitempty"`
	// CheckpointSeg is set on interrupted checkpointed jobs: the segment
	// index a resubmitted run would resume from.
	CheckpointSeg int       `json:"checkpoint_seg,omitempty"`
	SubmittedAt   time.Time `json:"submitted_at"`
}

// job is the server-side record of one admitted job. The server keeps
// it for its whole life, so c and stim — the job's inputs, read once by
// runJob — are dropped when the job finishes (see finishLocked).
type job struct {
	id   string
	spec JobSpec
	c    *circuit.Circuit
	stim *circuit.Stimulus

	mu        sync.Mutex
	status    string
	errMsg    string
	submitted time.Time
	started   time.Time
	finished  time.Time
	result    *JobResult
	traceEv   []obs.Event
	store     *core.CheckpointStore
}

func (j *job) markRunning() {
	j.mu.Lock()
	j.status = StatusRunning
	j.started = time.Now()
	j.mu.Unlock()
}

// finishLocked moves the job to a final status and releases its
// circuit and stimulus. The caller holds j.mu.
func (j *job) finishLocked(status string) {
	j.status = status
	j.finished = time.Now()
	j.c, j.stim = nil, nil
}

func (j *job) markDone(res *core.Result) {
	j.mu.Lock()
	j.finishLocked(StatusDone)
	j.result = &JobResult{
		Engine:    res.Engine,
		Workers:   res.Workers,
		Events:    res.TotalEvents,
		ElapsedMS: float64(res.Elapsed) / float64(time.Millisecond),
		Attempts:  res.Attempts,
		Degraded:  res.Degraded,
		Metrics:   res.Metrics,
	}
	j.mu.Unlock()
}

func (j *job) markFailed(err error) {
	j.mu.Lock()
	j.finishLocked(StatusFailed)
	j.errMsg = err.Error()
	j.mu.Unlock()
}

func (j *job) markInterrupted(err error) {
	j.mu.Lock()
	j.finishLocked(StatusInterrupted)
	j.errMsg = err.Error()
	j.mu.Unlock()
}

// view snapshots the job for JSON rendering.
func (j *job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:          j.id,
		Status:      j.status,
		Spec:        j.spec,
		Result:      j.result,
		Error:       j.errMsg,
		Trace:       j.spec.Trace,
		SubmittedAt: j.submitted,
	}
	switch {
	case j.started.IsZero():
		v.QueuedMS = float64(time.Since(j.submitted)) / float64(time.Millisecond)
	default:
		v.QueuedMS = float64(j.started.Sub(j.submitted)) / float64(time.Millisecond)
		end := j.finished
		if end.IsZero() {
			end = time.Now()
		}
		v.RunMS = float64(end.Sub(j.started)) / float64(time.Millisecond)
	}
	if j.store != nil {
		m := obs.Metrics{}
		j.store.MetricsInto(m)
		v.Ckpt = m["checkpoint.count"]
		v.Resumes = m["resilient.resumes"]
		if j.status == StatusInterrupted {
			if ck := j.store.Latest(); ck != nil {
				v.CheckpointSeg = ck.Seg
			}
		}
	}
	return v
}
