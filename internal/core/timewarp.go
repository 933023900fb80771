package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"hjdes/internal/circuit"
	"hjdes/internal/hj"
	"hjdes/internal/obs"
	"hjdes/internal/queue"
)

// twEngine is an optimistic (Time Warp) engine — the other family of
// PDES algorithms the paper's Section 2.1 surveys (Jefferson & Sowizral's
// rollback mechanism), implemented here so the conservative/optimistic
// trade-off can be measured on the same workloads.
//
// Nodes process events beyond their Chandy–Misra-safe horizon. When a
// straggler (an event older than the node's local virtual time) or an
// anti-message arrives, the node rolls back: it restores the saved state,
// re-enqueues the undone events, and sends anti-messages cancelling the
// emissions of the undone processing steps. Execution is organized in
// BSP rounds with double-buffered per-edge channels, which makes the
// whole simulation deterministic for every worker count; global virtual
// time (GVT) is computed at each barrier and fossil collection archives
// or discards history older than GVT. The optional window bounds
// optimism to GVT+W, giving a spectrum from nearly-conservative (small
// W) to pure Time Warp (unbounded).
type twEngine struct {
	opts Options
	name string
}

// NewTimeWarp returns the optimistic engine. Options.TimeWarpWindow
// bounds speculation (0 = unbounded).
func NewTimeWarp(opts Options) Engine {
	name := "timewarp"
	if opts.TimeWarpWindow > 0 {
		name = fmt.Sprintf("timewarp-w%d", opts.TimeWarpWindow)
	}
	return &twEngine{opts: opts, name: name}
}

func (e *twEngine) Name() string { return e.name }

// TraceRecorder exposes the run's flight recorder (nil when tracing is
// off) for supervision failure dumps.
func (e *twEngine) TraceRecorder() *obs.Recorder { return e.opts.Trace }

// TWStats counts optimistic-execution activity.
type TWStats struct {
	Rounds     int
	Rollbacks  int64 // rollback episodes
	Undone     int64 // processed events undone by rollbacks
	Antis      int64 // anti-messages sent
	Stragglers int64 // late positive events that forced a rollback
	Sweeps     int64 // asynchronous GVT snapshots published (tw-hj; barrier engine: 0)
	Fires      int64 // throttled-node wakeups fired by the GVT sweep (tw-hj)
}

func (s TWStats) String() string {
	return fmt.Sprintf("rounds=%d rollbacks=%d undone=%d antis=%d stragglers=%d sweeps=%d fires=%d",
		s.Rounds, s.Rollbacks, s.Undone, s.Antis, s.Stragglers, s.Sweeps, s.Fires)
}

// MetricsInto folds the counters into a flat metrics map under the "tw."
// namespace.
func (s TWStats) MetricsInto(m obs.Metrics) {
	m.Add("tw.rounds", int64(s.Rounds))
	m.Add("tw.rollbacks", s.Rollbacks)
	m.Add("tw.undone", s.Undone)
	m.Add("tw.antis", s.Antis)
	m.Add("tw.stragglers", s.Stragglers)
	m.Add("tw.sweeps", s.Sweeps)
	m.Add("tw.fires", s.Fires)
}

// twEvent is an optimistic message: a signal value or an anti-message
// cancelling a previous one (matched by ID).
type twEvent struct {
	Time  int64
	ID    int64 // unique per emission; annihilation key
	Port  int32
	Value circuit.Value
	Anti  bool
}

func lessTWEvent(a, b twEvent) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	return a.ID < b.ID
}

// twGate is the per-node identity and wiring both Time Warp engines
// share, with the emission numbering their rollback logs rely on.
type twGate struct {
	id      int32
	kind    circuit.Kind
	delay   int64
	fanout  []dest
	emitSeq int64 // last emission number; the first emission is 1
}

// twOut is what a log record keeps of its step's emissions. A step
// sends one event per fanout slot, all carrying val at the same time,
// under consecutive emission numbers from seq0 — so a rollback rebuilds
// every anti-message from these two fields instead of storing the
// sends. seq0 == 0 marks a step that sent nothing (terminals).
type twOut struct {
	seq0 int64
	val  circuit.Value
}

// stamp gives ev a fresh emission ID and the port that fanout slot
// feeds.
func (g *twGate) stamp(slot int, ev twEvent) twEvent {
	g.emitSeq++
	ev.ID = int64(g.id)<<40 | g.emitSeq
	ev.Port = g.fanout[slot].port
	return ev
}

// step applies ev to the input wires in inVal and, for a gate, appends
// one stamped output event to each fanout slot's buffer in bufs. It
// returns the record of what was sent.
func (g *twGate) step(inVal *[2]circuit.Value, ev twEvent, bufs [][]twEvent) twOut {
	inVal[ev.Port] = ev.Value
	if g.kind == circuit.Output || g.kind == circuit.Input {
		return twOut{}
	}
	v := g.kind.Eval(inVal[0], inVal[1])
	out := twEvent{Time: ev.Time + g.delay + circuit.WireDelay, Value: v}
	rec := twOut{seq0: g.emitSeq + 1, val: v}
	for slot := range g.fanout {
		bufs[slot] = append(bufs[slot], g.stamp(slot, out))
	}
	return rec
}

// cancel appends to each fanout slot's buffer in bufs the anti-message
// for that slot's emission of the step that processed ev and recorded
// out, rebuilt from the record, and returns how many it sent.
func (g *twGate) cancel(bufs [][]twEvent, ev twEvent, out twOut) int64 {
	if out.seq0 == 0 {
		return 0
	}
	for slot := range g.fanout {
		bufs[slot] = append(bufs[slot], twEvent{
			Time:  ev.Time + g.delay + circuit.WireDelay,
			ID:    int64(g.id)<<40 | (out.seq0 + int64(slot)),
			Port:  g.fanout[slot].port,
			Value: out.val,
			Anti:  true,
		})
	}
	return int64(len(g.fanout))
}

// twRecord is one processed event with its pre-state, for rollback.
type twRecord struct {
	ev     twEvent
	preVal [2]circuit.Value
	out    twOut
}

// twInEdge locates one incoming edge's double-buffered channel.
type twInEdge struct {
	src  int32 // source node
	slot int32 // index into the source's fanout/outBuf
}

// twNode is the Time Warp state of one circuit node.
type twNode struct {
	twGate
	inEdge []twInEdge

	inputQ    *queue.Heap[twEvent]
	cancelled map[int64]bool // tombstones for annihilated queued events
	log       []twRecord
	inVal     [2]circuit.Value
	lvt       int64

	// Double-buffered per-fanout-edge outboxes: bank (round%2) is
	// written this round, the other bank is read by destinations.
	outBuf [2][][]twEvent

	// committed history (output terminals archive TimedValues; all nodes
	// count committed events at fossil collection).
	archived    int64
	history     []TimedValue
	transitions []circuit.Transition // input terminals
	rollbacks   int64
	undone      int64
	antis       int64
	stragglers  int64
}

// twRun is one engine run.
type twRun struct {
	nodes  []twNode
	window int64
	record bool
	hooks  *ChaosHooks // scheduler-level fault injection; may be nil
	// roundNo is the current BSP round, written by the driver between
	// rounds (the Finish hand-off orders the write before every node
	// step) and read by the chaos rollback hook.
	roundNo int
}

func (e *twEngine) Run(c *circuit.Circuit, stim *circuit.Stimulus) (*Result, error) {
	res, _, err := e.run(nil, c, stim, nil, false)
	return res, err
}

// RunContext runs the simulation under ctx, checked at every BSP barrier:
// on cancellation the round loop exits (stopping the hj workers when
// parallel) and the context's cause is returned. A panic inside a
// parallel round becomes an *EngineError naming the worker.
func (e *twEngine) RunContext(ctx context.Context, c *circuit.Circuit, stim *circuit.Stimulus) (*Result, error) {
	res, _, err := e.run(ctx, c, stim, nil, false)
	return res, err
}

// RunFrom implements Checkpointer. Time Warp's snapshots are taken at
// settle boundaries, which coincide with GVT = ∞ for the segment: every
// log entry has been fossil-collected, so the saved wire state is fully
// committed — never speculative.
func (e *twEngine) RunFrom(ctx context.Context, c *circuit.Circuit, stim *circuit.Stimulus, store *CheckpointStore) (*Result, error) {
	return runSegmented(ctx, e, c, stim, e.opts.CheckpointEvery, store,
		func(sctx context.Context, seg *circuit.Stimulus, rs *ResumeState) (*Result, ResumeState, error) {
			return e.run(sctx, c, seg, rs, true)
		})
}

func (e *twEngine) run(ctx context.Context, c *circuit.Circuit, stim *circuit.Stimulus, rs *ResumeState, capture bool) (*Result, ResumeState, error) {
	start := time.Now()
	if err := stim.Validate(c); err != nil {
		return nil, ResumeState{}, err
	}
	r := &twRun{window: e.opts.TimeWarpWindow, record: !e.opts.DiscardOutputs, hooks: e.opts.Chaos}
	r.nodes = make([]twNode, len(c.Nodes))
	for i := range c.Nodes {
		cn := &c.Nodes[i]
		n := &r.nodes[i]
		n.id = int32(cn.ID)
		n.kind = cn.Kind
		n.delay = cn.Kind.Delay()
		n.fanout = make([]dest, len(cn.Fanout))
		for j, p := range cn.Fanout {
			n.fanout[j] = dest{node: int32(p.Node), port: int32(p.In)}
		}
		n.outBuf[0] = make([][]twEvent, len(n.fanout))
		n.outBuf[1] = make([][]twEvent, len(n.fanout))
		n.inputQ = queue.NewHeap(lessTWEvent)
		n.cancelled = map[int64]bool{}
		n.lvt = -1
	}
	// Wire incoming-edge locators.
	for i := range r.nodes {
		src := &r.nodes[i]
		for slot, d := range src.fanout {
			dst := &r.nodes[d.node]
			dst.inEdge = append(dst.inEdge, twInEdge{src: int32(i), slot: int32(slot)})
		}
	}
	for i, id := range c.Inputs {
		r.nodes[id].transitions = stim.ByInput[i]
	}
	if rs != nil && len(rs.InVal) == len(r.nodes) {
		for i := range r.nodes {
			r.nodes[i].inVal = rs.InVal[i]
		}
	}

	var rt *hj.Runtime
	if e.opts.Workers != 1 {
		rt = hj.NewRuntime(hj.Config{Workers: e.opts.workers(), Trace: e.opts.Trace})
		defer rt.Shutdown()
		if ctx != nil {
			watchDone := make(chan struct{})
			defer close(watchDone)
			go func() {
				select {
				case <-ctx.Done():
					rt.Cancel()
				case <-watchDone:
				}
			}()
		}
	}

	// Round 0: input terminals flood their whole schedules (sources are
	// conservative and never roll back).
	for _, id := range c.Inputs {
		n := &r.nodes[id]
		for _, tr := range n.transitions {
			ev := twEvent{Time: tr.Time + circuit.WireDelay, Value: tr.Value}
			for slot := range n.fanout {
				n.outBuf[0][slot] = append(n.outBuf[0][slot], n.stamp(slot, ev))
			}
		}
	}

	stats := TWStats{}
	// The barrier loop runs on this goroutine; hj workers own trace shards
	// 0..W-1, so round records go on a dedicated shard above them.
	var ring *obs.Ring
	if e.opts.Trace != nil {
		shard := 0
		if rt != nil {
			shard = rt.NumWorkers()
		}
		ring = e.opts.Trace.Ring(shard)
	}
	bank := 0 // the bank written during round 0 above
	n := len(r.nodes)
	for {
		if ctx != nil && ctx.Err() != nil {
			return nil, ResumeState{}, context.Cause(ctx)
		}
		r.roundNo = stats.Rounds
		// Swap banks: this round absorbs from `bank`, writes to 1-bank.
		read, write := bank, 1-bank
		step := func(i int) { r.nodes[i].round(r, read, write) }
		if rt != nil {
			rt.Finish(func(hctx *hj.Ctx) {
				hctx.ForAsync(n, 4, func(_ *hj.Ctx, i int) { step(i) })
			})
			if err := rt.Err(); err != nil {
				var tp *hj.TaskPanic
				if errors.As(err, &tp) {
					return nil, ResumeState{}, &EngineError{
						Engine: e.name, Unit: fmt.Sprintf("worker %d", tp.Worker),
						Reason: FailPanic, Value: tp.Value, Stack: tp.Stack, Err: tp,
					}
				}
				if ctx != nil && ctx.Err() != nil {
					return nil, ResumeState{}, context.Cause(ctx)
				}
				return nil, ResumeState{}, err
			}
		} else {
			for i := 0; i < n; i++ {
				step(i)
			}
		}
		stats.Rounds++

		// Barrier work: clear the consumed bank, compute GVT, detect
		// termination, fossil-collect.
		gvt := TimeInfinity
		busy := false
		for i := range r.nodes {
			nd := &r.nodes[i]
			for slot := range nd.outBuf[read] {
				nd.outBuf[read][slot] = nd.outBuf[read][slot][:0]
			}
			if top, ok := nd.inputQ.Peek(); ok && !nd.cancelled[top.ID] {
				busy = true
				if top.Time < gvt {
					gvt = top.Time
				}
			} else if ok {
				busy = true // tombstoned entries still need draining
				if top.Time < gvt {
					gvt = top.Time
				}
			}
			for slot := range nd.outBuf[write] {
				for _, ev := range nd.outBuf[write][slot] {
					busy = true
					if ev.Time < gvt {
						gvt = ev.Time
					}
				}
			}
		}
		if gvt == TimeInfinity {
			ring.Record(obs.EvRound, int64(stats.Rounds), -1)
		} else {
			ring.Record(obs.EvRound, int64(stats.Rounds), gvt)
		}
		if !busy {
			break
		}
		for i := range r.nodes {
			r.nodes[i].fossilCollect(gvt, r.record)
		}
		bank = write
	}

	// Commit all remaining history.
	res := &Result{
		Engine:     e.name,
		Workers:    1,
		NodeEvents: make([]int64, len(r.nodes)),
		Outputs:    map[string][]TimedValue{},
	}
	if rt != nil {
		res.Workers = rt.NumWorkers()
	}
	for i := range r.nodes {
		nd := &r.nodes[i]
		nd.fossilCollect(TimeInfinity, r.record)
		res.NodeEvents[i] = nd.archived
		res.TotalEvents += nd.archived
		stats.Rollbacks += nd.rollbacks
		stats.Undone += nd.undone
		stats.Antis += nd.antis
		stats.Stragglers += nd.stragglers
	}
	for _, id := range c.Outputs {
		res.Outputs[c.Nodes[id].Name] = r.nodes[id].history
	}
	var final ResumeState
	if capture {
		// Every log entry was just fossil-collected (GVT = ∞): inVal is
		// the committed settled wire state.
		final = ResumeState{InVal: make([][2]circuit.Value, len(r.nodes))}
		for i := range r.nodes {
			final.InVal[i] = r.nodes[i].inVal
		}
	}
	res.TimeWarp = stats
	if rt != nil {
		res.HJ = rt.Stats()
	}
	res.FillMetrics(e.opts)
	res.Elapsed = time.Since(start)
	return res, final, nil
}

// round is one node's BSP step: absorb arrivals from the read bank
// (handling stragglers and anti-messages with rollbacks), then process
// optimistically into the write bank.
func (n *twNode) round(r *twRun, read, write int) {
	if h := r.hooks; h != nil && h.Task != nil {
		// Contained by the hj worker's recover in parallel runs, by the
		// supervisor's in sequential ones.
		h.Task(int(n.id))
	}
	// Absorb.
	for _, ie := range n.inEdge {
		src := &r.nodes[ie.src]
		for _, ev := range src.outBuf[read][ie.slot] {
			if ev.Anti {
				n.annihilate(r, write, ev)
				continue
			}
			if n.lvt >= 0 && ev.Time < n.lvt {
				n.stragglers++
				n.rollbackBefore(r, write, ev.Time, -1)
			}
			n.inputQ.Push(ev)
		}
	}
	// Injected rollback storm: undo the newer half of the processed log
	// as if a straggler had arrived. Semantics-preserving — the undone
	// events re-queue, anti-messages cancel their emissions downstream,
	// and re-execution reconverges — so chaotic runs stay bit-exact.
	if h := r.hooks; h != nil && h.Rollback != nil && len(n.log) > 1 && h.Rollback(n.id, r.roundNo) {
		n.rollbackBefore(r, write, n.log[len(n.log)/2].ev.Time, -1)
	}
	// Process optimistically up to the window horizon.
	horizon := TimeInfinity
	if r.window > 0 {
		// GVT is implicit: the node's own unprocessed minimum is a safe
		// local proxy available without a barrier; the driver's fossil
		// GVT governs memory, not the horizon. A window W means "do not
		// run more than W ahead of your own earliest pending work".
		if top, ok := n.inputQ.Peek(); ok {
			horizon = top.Time + r.window
		}
	}
	for {
		top, ok := n.inputQ.Peek()
		if !ok || top.Time > horizon {
			break
		}
		ev, _ := n.inputQ.Pop()
		if n.cancelled[ev.ID] {
			delete(n.cancelled, ev.ID)
			continue
		}
		n.process(write, ev)
	}
}

// process executes one event optimistically, logging its pre-state and
// what it sent.
func (n *twNode) process(bank int, ev twEvent) {
	rec := twRecord{ev: ev, preVal: n.inVal}
	rec.out = n.step(&n.inVal, ev, n.outBuf[bank])
	n.log = append(n.log, rec)
	n.lvt = ev.Time
}

// annihilate handles an anti-message: remove the matching positive event
// from the queue (tombstone) or roll back its processing.
func (n *twNode) annihilate(r *twRun, bank int, anti twEvent) {
	// Processed?
	for i := range n.log {
		if n.log[i].ev.ID == anti.ID {
			n.rollbackBefore(r, bank, anti.Time, anti.ID)
			return
		}
	}
	// Still queued (positives always arrive before their antis).
	n.cancelled[anti.ID] = true
}

// rollbackBefore undoes every processed event with time > t (plus the
// event with ID dropID, which is annihilated rather than re-queued),
// restoring the state snapshot and sending anti-messages for all undone
// emissions. For a straggler at time t, ties at t keep their processing
// (tie order is free, per Section 4.1); for annihilation, the target
// itself must go, so the cut starts at its log position.
func (n *twNode) rollbackBefore(r *twRun, bank int, t int64, dropID int64) {
	cut := len(n.log)
	for i := range n.log {
		if n.log[i].ev.Time > t || n.log[i].ev.ID == dropID {
			cut = i
			break
		}
	}
	if cut == len(n.log) {
		return
	}
	n.rollbacks++
	for i := len(n.log) - 1; i >= cut; i-- {
		rec := &n.log[i]
		n.antis += n.cancel(n.outBuf[bank], rec.ev, rec.out)
		n.undone++
		if rec.ev.ID != dropID {
			n.inputQ.Push(rec.ev)
		}
	}
	n.inVal = n.log[cut].preVal
	if cut > 0 {
		n.lvt = n.log[cut-1].ev.Time
	} else {
		n.lvt = -1
	}
	n.log = n.log[:cut]
}

// fossilCollect commits log entries strictly older than gvt: output
// terminals archive them as history samples; every node counts them.
func (n *twNode) fossilCollect(gvt int64, record bool) {
	cut := 0
	for cut < len(n.log) && n.log[cut].ev.Time < gvt {
		cut++
	}
	if cut == 0 {
		return
	}
	if n.kind == circuit.Output && record {
		for i := 0; i < cut; i++ {
			n.history = append(n.history, TimedValue{Time: n.log[i].ev.Time, Value: n.log[i].ev.Value})
		}
	}
	n.archived += int64(cut)
	n.log = append(n.log[:0], n.log[cut:]...)
}
