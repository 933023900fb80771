package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"hjdes/internal/circuit"
	"hjdes/internal/obs"
)

// Checkpointer is implemented by engines that can snapshot a run at
// crash-consistent boundaries and resume from the latest snapshot.
// RunFrom behaves like Run/RunContext except that it periodically saves
// checkpoints into store and, when store already holds one (from an
// earlier failed attempt — possibly by a *different* engine), resumes
// from it instead of starting over. Checkpoints are engine-agnostic:
// a run checkpointed by hj can be resumed by seq, which is what lets
// Resilient degrade down a fallback chain without losing completed work.
type Checkpointer interface {
	Engine
	RunFrom(ctx context.Context, c *circuit.Circuit, stim *circuit.Stimulus, store *CheckpointStore) (*Result, error)
}

// ResumeState is the engine-agnostic wire state of a quiescent circuit:
// the settled value on every node's input ports. At a settle boundary no
// events are queued or in flight anywhere, so this — plus the stimulus
// still to come — is the complete simulation state. Every engine family
// (workset, hj, galois, timewarp, lp) can seed a fresh run from it
// and capture it at completion.
type ResumeState struct {
	InVal [][2]circuit.Value // per node, indexed by NodeID
}

// clone deep-copies the state so a stored checkpoint can never alias a
// live run's buffers.
func (rs *ResumeState) clone() ResumeState {
	return ResumeState{InVal: append([][2]circuit.Value(nil), rs.InVal...)}
}

// Checkpoint is one crash-consistent snapshot: everything accumulated by
// the segments already completed, plus the wire state to seed the next
// segment with. Seg is the index of the next segment to run.
type Checkpoint struct {
	Seg         int
	TotalEvents int64
	NodeEvents  []int64
	Outputs     map[string][]TimedValue
	Metrics     obs.Metrics
	State       ResumeState
}

// sizeBytes estimates the snapshot's memory footprint for the
// checkpoint.bytes metric.
func (ck *Checkpoint) sizeBytes() int64 {
	n := int64(len(ck.State.InVal))*2 + int64(len(ck.NodeEvents))*8 + int64(len(ck.Metrics))*24
	for _, h := range ck.Outputs {
		n += int64(len(h)) * 16
	}
	return n
}

// CheckpointStore holds the latest checkpoint of one logical run across
// supervised attempts (and across fallback engines). Safe for concurrent
// use: the engine goroutine saves while the supervisor may be reading
// counters.
type CheckpointStore struct {
	mu        sync.Mutex
	latest    *Checkpoint
	count     int64 // snapshots saved
	bytes     int64 // cumulative snapshot bytes
	resumes   int64 // attempts that resumed from a snapshot
	resumeSeg int64 // segment index of the most recent resume
}

// NewCheckpointStore returns an empty store for one logical run.
func NewCheckpointStore() *CheckpointStore { return &CheckpointStore{} }

// Save records ck as the latest snapshot. ck must not alias live run
// state (runSegmented deep-copies before saving).
func (s *CheckpointStore) Save(ck *Checkpoint) {
	s.mu.Lock()
	s.latest = ck
	s.count++
	s.bytes += ck.sizeBytes()
	s.mu.Unlock()
}

// Latest returns the most recent snapshot, or nil when none was saved.
func (s *CheckpointStore) Latest() *Checkpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.latest
}

// Count reports how many snapshots were saved.
func (s *CheckpointStore) Count() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

func (s *CheckpointStore) noteResume(seg int) {
	s.mu.Lock()
	s.resumes++
	s.resumeSeg = int64(seg)
	s.mu.Unlock()
}

// MetricsInto writes the store's counters into a flat metrics map
// (assignment, not addition, so repeated folding is idempotent).
func (s *CheckpointStore) MetricsInto(m obs.Metrics) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m["checkpoint.count"] = s.count
	m["checkpoint.bytes"] = s.bytes
	if s.resumes > 0 {
		m["resilient.resumes"] = s.resumes
		m["resilient.resume_cycle"] = s.resumeSeg
	}
}

// settleCuts computes the safe checkpoint boundaries of a stimulus: the
// distinct transition times t at which the circuit is provably quiescent
// before t's events enter — i.e. the previous transition time plus the
// circuit's settle bound does not reach t, so every earlier cascade has
// died out, no events are queued anywhere, and the run can be cut into
// independent segments. With the paper's wave spacing (period =
// SettleTime()+10) every wave boundary qualifies. every > 1 keeps only
// each every-th boundary (the Options.CheckpointEvery cadence).
func settleCuts(c *circuit.Circuit, stim *circuit.Stimulus, every int) []int64 {
	if every <= 0 {
		every = 1
	}
	var times []int64
	for _, ts := range stim.ByInput {
		for _, tr := range ts {
			times = append(times, tr.Time)
		}
	}
	if len(times) == 0 {
		return nil
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	distinct := times[:1]
	for _, t := range times[1:] {
		if t != distinct[len(distinct)-1] {
			distinct = append(distinct, t)
		}
	}
	settle := c.SettleTime()
	var cuts []int64
	safe := 0
	for i := 1; i < len(distinct); i++ {
		if distinct[i] >= distinct[i-1]+settle {
			safe++
			if safe%every == 0 {
				cuts = append(cuts, distinct[i])
			}
		}
	}
	return cuts
}

// sliceStimulus returns the sub-stimulus with transition times in
// [lo, hi). Transitions keep their absolute timestamps (a resumed
// segment's outputs land at the same times as the full run's) and the
// slices share the original backing arrays.
func sliceStimulus(stim *circuit.Stimulus, lo, hi int64) *circuit.Stimulus {
	out := &circuit.Stimulus{ByInput: make([][]circuit.Transition, len(stim.ByInput))}
	for i, ts := range stim.ByInput {
		a := sort.Search(len(ts), func(j int) bool { return ts[j].Time >= lo })
		b := sort.Search(len(ts), func(j int) bool { return ts[j].Time >= hi })
		out.ByInput[i] = ts[a:b:b]
	}
	return out
}

// segmentRunner runs one stimulus segment to completion, seeded with the
// previous segment's settled wire state (nil for a cold start), and
// returns the segment's result plus the wire state at its end.
type segmentRunner func(ctx context.Context, seg *circuit.Stimulus, rs *ResumeState) (*Result, ResumeState, error)

// runSegmented is the shared Checkpointer driver: it cuts the stimulus at
// settle boundaries, resumes from store's latest snapshot when one
// exists, runs the remaining segments through runSeg, saves a snapshot
// after each completed segment, and merges the per-segment results into
// one Result indistinguishable (outputs, event counts) from an unbroken
// run. Engine-typed stats (Result.HJ etc.) are taken from the last
// segment; the Metrics map is summed across segments.
func runSegmented(ctx context.Context, e Engine, c *circuit.Circuit, stim *circuit.Stimulus, every int, store *CheckpointStore, runSeg segmentRunner) (*Result, error) {
	start := time.Now()
	if ctx == nil {
		ctx = context.Background()
	}
	if err := stim.Validate(c); err != nil {
		return nil, err
	}
	cuts := settleCuts(c, stim, every)
	if store == nil || len(cuts) == 0 {
		res, _, err := runSeg(ctx, stim, nil)
		return res, err
	}
	bounds := make([]int64, 0, len(cuts)+2)
	bounds = append(bounds, math.MinInt64)
	bounds = append(bounds, cuts...)
	bounds = append(bounds, math.MaxInt64)
	segs := len(bounds) - 1

	acc := &Result{
		Engine:     e.Name(),
		NodeEvents: make([]int64, len(c.Nodes)),
		Outputs:    map[string][]TimedValue{},
		Metrics:    obs.Metrics{},
	}
	startSeg := 0
	var rs *ResumeState
	if ck := store.Latest(); ck != nil {
		if ck.Seg >= segs || len(ck.State.InVal) != len(c.Nodes) {
			return nil, fmt.Errorf("core: checkpoint (segment %d, %d nodes) does not match run (%d segments, %d nodes)",
				ck.Seg, len(ck.State.InVal), segs, len(c.Nodes))
		}
		startSeg = ck.Seg
		acc.TotalEvents = ck.TotalEvents
		copy(acc.NodeEvents, ck.NodeEvents)
		for name, h := range ck.Outputs {
			acc.Outputs[name] = append([]TimedValue(nil), h...)
		}
		acc.Metrics.Merge(ck.Metrics)
		st := ck.State.clone()
		rs = &st
		store.noteResume(startSeg)
	}

	for k := startSeg; k < segs; k++ {
		if ctx.Err() != nil {
			return nil, context.Cause(ctx)
		}
		seg := sliceStimulus(stim, bounds[k], bounds[k+1])
		res, st, err := runSeg(ctx, seg, rs)
		if err != nil {
			return nil, err
		}
		acc.Workers = res.Workers
		acc.TotalEvents += res.TotalEvents
		for i, n := range res.NodeEvents {
			acc.NodeEvents[i] += n
		}
		for name, h := range res.Outputs {
			acc.Outputs[name] = append(acc.Outputs[name], h...)
		}
		acc.Metrics.Merge(res.Metrics)
		acc.HJ, acc.Galois, acc.TimeWarp, acc.LP = res.HJ, res.Galois, res.TimeWarp, res.LP
		rs = &st
		if k < segs-1 {
			ck := &Checkpoint{
				Seg:         k + 1,
				TotalEvents: acc.TotalEvents,
				NodeEvents:  append([]int64(nil), acc.NodeEvents...),
				Outputs:     make(map[string][]TimedValue, len(acc.Outputs)),
				Metrics:     obs.Metrics{},
				State:       st.clone(),
			}
			for name, h := range acc.Outputs {
				ck.Outputs[name] = append([]TimedValue(nil), h...)
			}
			ck.Metrics.Merge(acc.Metrics)
			store.Save(ck)
		}
	}
	store.MetricsInto(acc.Metrics)
	acc.Elapsed = time.Since(start)
	return acc, nil
}
