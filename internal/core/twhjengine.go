package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"hjdes/internal/circuit"
	"hjdes/internal/hj"
	"hjdes/internal/lp"
	"hjdes/internal/obs"
)

func init() { RegisterEngine("tw-hj", NewTWHJ) }

// twhjEngine is the barrier-free optimistic engine: Time Warp fused onto
// the hj work-stealing runtime. Where the barrier `timewarp` engine runs
// BSP rounds — every node steps, then a global barrier computes GVT and
// swaps message banks — tw-hj gives each circuit node its own logical
// process running as an hj IndexedTask: events and anti-messages travel
// through the same lock-free MPSC mailboxes the lp-hj engine uses, a
// scheduled-flag dedup keeps at most one pending slice per node, and no
// node ever waits for any other. GVT is computed asynchronously by a
// Mattern-style sweep goroutine off the critical path: each node
// publishes a floor (the minimum timestamp it may still send at) and
// sent/received message counts on padded atomics; when a double-read of
// the counters shows no message in transit, the minimum floor is a safe
// GVT, which drives fossil collection, commit, and the optimism
// throttle. See DESIGN.md §16 for the safety argument.
//
// Two optimizations ride on the barrier-free core: incremental state
// saving (Options.TimeWarpSaveEvery logs pre-state only at anchor
// events, rollback coast-forwards from the nearest anchor) and adaptive
// optimism throttling (Options.TimeWarpAdaptive lets the sweep widen or
// narrow the effective TimeWarpWindow from the observed rollback
// fraction). Both are semantics-preserving.
//
// The engine implements ContextEngine, ProgressReporter, Diagnoser,
// TraceSource and Checkpointer, so the full Supervise/Resilient stack
// applies; the barrier `timewarp` engine remains registered as the
// ablation baseline.
type twhjEngine struct {
	opts Options
	name string
	runP atomic.Pointer[twhjRun]
}

// NewTWHJ returns the barrier-free optimistic engine.
// Options.TimeWarpWindow bounds speculation (0 = unbounded).
func NewTWHJ(opts Options) Engine {
	name := "tw-hj"
	if opts.TimeWarpWindow > 0 {
		name = fmt.Sprintf("tw-hj-w%d", opts.TimeWarpWindow)
	}
	return &twhjEngine{opts: opts, name: name}
}

func (e *twhjEngine) Name() string { return e.name }

// TraceRecorder exposes the run's flight recorder (nil when tracing is
// off) for supervision failure dumps.
func (e *twhjEngine) TraceRecorder() *obs.Recorder { return e.opts.Trace }

// Progress exposes the monotonic processed-event counter of the current
// (or most recent) run for the stall watchdog.
func (e *twhjEngine) Progress() uint64 {
	if r := e.runP.Load(); r != nil {
		return r.progress.Load()
	}
	return 0
}

// Diagnose renders the GVT-accounting snapshot of the most recent run:
// published GVT, effective window, and the per-node floors and message
// counters (atomics only — a diagnostic may race an abandoned run).
func (e *twhjEngine) Diagnose() string {
	r := e.runP.Load()
	if r == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "tw-hj: gvt=%d window=%d progress=%d nodes=%d\n",
		r.gvt.Load(), r.effWin.Load(), r.progress.Load(), len(r.nodes))
	shown := 0
	for i := range r.nodes {
		cell := &r.cells[i]
		f := cell.floor.Load()
		if f == TimeInfinity && !r.nodes[i].sched.Load() {
			continue
		}
		fmt.Fprintf(&b, "node %d: floor=%d sent=%d recvd=%d sched=%v\n",
			i, f, cell.sent.Load(), cell.recvd.Load(), r.nodes[i].sched.Load())
		if shown++; shown >= 32 {
			fmt.Fprintf(&b, "... (%d nodes total)\n", len(r.nodes))
			break
		}
	}
	return b.String()
}

// twMail / twMailbox instantiate the lp package's lock-free MPSC
// mailbox for Time Warp traffic: one node carries one batch of
// (positive or anti) events. Per-sender FIFO — push order preserved by
// the drain reversal — is what guarantees a positive message always
// arrives before its own anti-message.
type (
	twMail    = lp.Mail[[]twEvent]
	twMailbox = lp.Mailbox[[]twEvent]
)

// twhjRecord is one processed event in the rollback log. Under
// incremental state saving only anchor records carry the pre-state;
// rollback to a non-anchor record replays forward from the nearest
// earlier anchor (coast-forward). out rebuilds the step's
// anti-messages, so a record allocates nothing beyond its log slot.
type twhjRecord struct {
	ev     twEvent
	preVal [2]circuit.Value
	hasPre bool
	out    twOut
}

// gvtCell is one node's GVT accounting, alone on its cache line: the
// floor (a lower bound on every timestamp this node may still send at)
// and cumulative sent/received message counts. The sweep reads all
// cells; each node writes only its own, so padding keeps the sweep's
// scans from bouncing the nodes' hot lines.
type gvtCell struct {
	floor atomic.Int64
	sent  atomic.Int64
	recvd atomic.Int64
	_     [40]byte
}

// twhjNode is one circuit node's Time Warp logical process. Fields
// before the pad are owner-only (touched inside the node's slice, which
// the scheduled-flag protocol makes exclusive); the mailbox head and
// the scheduled flag after the pad are written by peers.
type twhjNode struct {
	twGate
	home int32 // home hj worker (submit-to-owner affinity)

	pending   [2]twPortQ // per-input-port pending events, sorted by lessTWEvent
	log       []twhjRecord
	inVal     [2]circuit.Value
	lvt       int64
	sliceSeq  int64 // chaos rollback key and EvSlice counter
	sinceSave int   // events since the last state-saving anchor

	out       [][]twEvent // per-fanout-slot send buffers, flushed at slice end
	mailFree  []*twMail   // owner-only recycled mail nodes (migrate sender→receiver)
	batchFree [][]twEvent // owner-only recycled batch slices

	history     []TimedValue
	transitions []circuit.Transition
	archived    int64
	rollbacks   int64
	undone      int64
	antis       int64
	stragglers  int64

	ring   *obs.Ring // flight-recorder shard = node id; nil when off
	ticket atomic.Pointer[hj.Ticket]

	_     [64]byte
	mb    twMailbox
	sched atomic.Bool
}

// twhjSweepInterval paces the GVT sweep goroutine. Low-frequency by
// design: the sweep is off every node's critical path, and a tick only
// advances fossil collection, the optimism throttle, and throttled-node
// wakeups.
const twhjSweepInterval = 50 * time.Microsecond

// twhjMailChunk is the slab size for mail-node carving.
const twhjMailChunk = 64

// twhjRun is one barrier-free run.
type twhjRun struct {
	nodes []twhjNode
	cells []gvtCell

	gvt      atomic.Int64 // last published safe GVT (monotone; -1 before the first sweep)
	effWin   atomic.Int64 // effective optimism window; 0 = unbounded
	progress atomic.Uint64
	undoneA  atomic.Int64 // rollback-undone events, for the adaptive throttle
	done     atomic.Bool  // cancellation flag checked inside long slices

	record    bool
	paranoid  bool
	noAff     bool
	adaptive  bool
	saveEvery int
	minWin    int64
	maxWin    int64
	hooks     *ChaosHooks

	sliceTask hj.IndexedTask
	sweepRing *obs.Ring // EvRound shard = len(nodes); sweep-goroutine only

	// sweep-goroutine-private counters, read after the sweep joins.
	sweeps, fires, widens, narrows int64

	// sweep snapshot scratch (allocated once).
	snapSent, snapRecvd []int64
}

func (e *twhjEngine) Run(c *circuit.Circuit, stim *circuit.Stimulus) (*Result, error) {
	res, _, err := e.run(nil, c, stim, nil, false)
	return res, err
}

// RunContext runs the simulation under ctx: on cancellation the runtime
// is canceled, every slice unwinds at its next check, and the context's
// cause is returned.
func (e *twhjEngine) RunContext(ctx context.Context, c *circuit.Circuit, stim *circuit.Stimulus) (*Result, error) {
	res, _, err := e.run(ctx, c, stim, nil, false)
	return res, err
}

// RunFrom implements Checkpointer. Like the barrier engine, snapshots
// are taken at settle boundaries, which coincide with GVT = ∞ for the
// segment: every log entry has been fossil-collected, so the saved wire
// state is fully committed — never speculative.
func (e *twhjEngine) RunFrom(ctx context.Context, c *circuit.Circuit, stim *circuit.Stimulus, store *CheckpointStore) (*Result, error) {
	return runSegmented(ctx, e, c, stim, e.opts.CheckpointEvery, store,
		func(sctx context.Context, seg *circuit.Stimulus, rs *ResumeState) (*Result, ResumeState, error) {
			return e.run(sctx, c, seg, rs, true)
		})
}

// validateTWHJOptions rejects nonsensical optimistic-engine options up
// front with a structured, non-retryable *EngineError.
func validateTWHJOptions(engine string, opts Options) error {
	bad := func(format string, args ...any) error {
		return &EngineError{Engine: engine, Reason: FailConfig, Err: fmt.Errorf(format, args...)}
	}
	const maxSaveEvery = 1 << 20
	switch {
	case opts.Workers < 0:
		return bad("Workers %d is negative (0 means GOMAXPROCS)", opts.Workers)
	case opts.TimeWarpWindow < 0:
		return bad("TimeWarpWindow %d is negative (0 means unbounded)", opts.TimeWarpWindow)
	case opts.TimeWarpSaveEvery < 0:
		return bad("TimeWarpSaveEvery %d is negative (0 means save every event)", opts.TimeWarpSaveEvery)
	case opts.TimeWarpSaveEvery > maxSaveEvery:
		return bad("TimeWarpSaveEvery %d exceeds the %d maximum", opts.TimeWarpSaveEvery, maxSaveEvery)
	}
	return nil
}

func (e *twhjEngine) run(ctx context.Context, c *circuit.Circuit, stim *circuit.Stimulus, rs *ResumeState, capture bool) (*Result, ResumeState, error) {
	start := time.Now()
	if err := validateTWHJOptions(e.name, e.opts); err != nil {
		return nil, ResumeState{}, err
	}
	if err := stim.Validate(c); err != nil {
		return nil, ResumeState{}, err
	}

	// Runtime selection mirrors lp-hj: reuse a caller-owned (pooled)
	// runtime when given one, except for chaotic runs, whose hooks are
	// wired at runtime construction. Tracing does not force a private
	// runtime: node slices record on per-node ring shards, never through
	// hj.Config (sharing shards between workers and nodes would give the
	// seqlock rings two writers).
	hcfg := hj.Config{Workers: e.opts.workers()}
	if e.opts.SingleSteal {
		hcfg.StealMax = 1
	}
	if ch := e.opts.Chaos; ch != nil {
		hcfg.TaskHook = ch.Task
		hcfg.WakeHook = ch.Wake
	}
	rt := e.opts.Runtime
	private := rt == nil || e.opts.Chaos != nil
	if private {
		rt = hj.NewRuntime(hcfg)
		defer rt.Shutdown()
	}

	r := &twhjRun{
		record:    !e.opts.DiscardOutputs,
		paranoid:  e.opts.Paranoid,
		noAff:     e.opts.NoAffinity,
		adaptive:  e.opts.TimeWarpAdaptive,
		saveEvery: e.opts.TimeWarpSaveEvery,
		hooks:     e.opts.Chaos,
	}
	r.gvt.Store(-1)
	win := e.opts.TimeWarpWindow
	if r.adaptive {
		if win == 0 {
			win = 4 * c.SettleTime() // a real window to adapt from
		}
		r.minWin = max(1, win/16)
		r.maxWin = win * 16
	}
	r.effWin.Store(win)
	e.runP.Store(r)

	// Build nodes. Home workers tile the index space so neighbor nodes
	// share a worker and cross-node mail stays cache-warm.
	w := rt.NumWorkers()
	r.nodes = make([]twhjNode, len(c.Nodes))
	r.cells = make([]gvtCell, len(c.Nodes))
	r.snapSent = make([]int64, len(c.Nodes))
	r.snapRecvd = make([]int64, len(c.Nodes))
	for i := range c.Nodes {
		cn := &c.Nodes[i]
		n := &r.nodes[i]
		n.id = int32(cn.ID)
		n.home = int32(i * w / len(c.Nodes))
		n.kind = cn.Kind
		n.delay = cn.Kind.Delay()
		n.fanout = make([]dest, len(cn.Fanout))
		for j, p := range cn.Fanout {
			n.fanout[j] = dest{node: int32(p.Node), port: int32(p.In)}
		}
		n.out = make([][]twEvent, len(n.fanout))
		n.lvt = -1
		n.ring = e.opts.Trace.Ring(i)
		r.cells[i].floor.Store(TimeInfinity)
	}
	r.sweepRing = e.opts.Trace.Ring(len(r.nodes))
	for i, id := range c.Inputs {
		r.nodes[id].transitions = stim.ByInput[i]
	}
	if rs != nil && len(rs.InVal) == len(r.nodes) {
		for i := range r.nodes {
			r.nodes[i].inVal = rs.InVal[i]
		}
	}
	r.sliceTask = func(hctx *hj.Ctx, idx int32) { r.slice(hctx, idx) }

	// Flood the stimulus: input terminals are conservative (they never
	// roll back), so their whole schedules go out before the first slice
	// runs. Sends are counted before the push, like every send.
	for _, id := range c.Inputs {
		n := &r.nodes[id]
		for slot := range n.fanout {
			batch := make([]twEvent, 0, len(n.transitions))
			for _, tr := range n.transitions {
				batch = append(batch, n.stamp(slot, twEvent{Time: tr.Time + circuit.WireDelay, Value: tr.Value}))
			}
			if len(batch) == 0 {
				continue
			}
			d := n.fanout[slot]
			r.cells[id].sent.Add(int64(len(batch)))
			r.nodes[d.node].mb.Push(&twMail{Val: batch})
		}
	}

	// Propagate external cancellation into the runtime; the watcher is
	// reaped on return and never cancels a completed run (which would
	// poison a pooled caller-owned runtime).
	watchDone := make(chan struct{})
	defer close(watchDone)
	if ctx != nil {
		go func() {
			select {
			case <-ctx.Done():
				select {
				case <-watchDone:
				default:
					r.done.Store(true)
					rt.Cancel()
				}
			case <-watchDone:
			}
		}()
	}

	// The GVT sweep runs for the whole Finish: it must keep resolving
	// tickets (rescheduling window-throttled nodes) or the finish scope
	// never drains, so it is stopped only after Finish returns.
	sweepStop := make(chan struct{})
	sweepDone := make(chan struct{})
	go r.sweep(sweepStop, sweepDone)

	rt.Finish(func(hctx *hj.Ctx) {
		for i := range r.nodes {
			n := &r.nodes[i]
			if n.mb.Empty() {
				continue
			}
			if !n.sched.CompareAndSwap(false, true) {
				continue
			}
			if r.noAff {
				hctx.AsyncIdx(r.sliceTask, int32(i))
			} else {
				hctx.AsyncIdxOn(int(n.home), r.sliceTask, int32(i))
			}
		}
	})
	close(sweepStop)
	<-sweepDone

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
	if ctx != nil && ctx.Err() != nil {
		return nil, ResumeState{}, context.Cause(ctx)
	}

	// Quiesced: commit all remaining history (GVT = ∞).
	stats := TWStats{Sweeps: r.sweeps, Fires: r.fires}
	res := &Result{
		Engine:     e.name,
		Workers:    rt.NumWorkers(),
		NodeEvents: make([]int64, len(r.nodes)),
		Outputs:    map[string][]TimedValue{},
	}
	for i := range r.nodes {
		n := &r.nodes[i]
		n.fossilCollect(TimeInfinity, r.record)
		res.NodeEvents[i] = n.archived
		res.TotalEvents += n.archived
		stats.Rollbacks += n.rollbacks
		stats.Undone += n.undone
		stats.Antis += n.antis
		stats.Stragglers += n.stragglers
	}
	for _, id := range c.Outputs {
		res.Outputs[c.Nodes[id].Name] = r.nodes[id].history
	}
	var final ResumeState
	if capture {
		final = ResumeState{InVal: make([][2]circuit.Value, len(r.nodes))}
		for i := range r.nodes {
			final.InVal[i] = r.nodes[i].inVal
		}
	}
	res.TimeWarp = stats
	if private {
		res.HJ = rt.Stats()
	}
	res.FillMetrics(e.opts)
	res.Elapsed = time.Since(start)
	return res, final, nil
}

// slice is one node's run-to-completion turn: drain the mailbox
// (handling stragglers and anti-messages with rollbacks), fossil-collect
// to the published GVT, process optimistically up to the window horizon,
// flush sends, republish the floor, and yield — leaving a ticket for the
// GVT sweep when pending work sits beyond the horizon.
func (r *twhjRun) slice(hctx *hj.Ctx, id int32) {
	n := &r.nodes[id]
	cell := &r.cells[id]
	for {
		if r.done.Load() {
			return
		}
		n.sliceSeq++
		n.ring.Record(obs.EvSlice, n.sliceSeq, 0)
		g := r.gvt.Load()

		// Drain. The floor is lowered to cover the arrivals BEFORE the
		// received counter absorbs them: a sweep that sees balanced
		// counters must already see the lowered floor, else it could
		// publish a GVT above an event we now hold (see DESIGN §16).
		if fifo := n.mb.Drain(); fifo != nil {
			minT := int64(TimeInfinity)
			count := int64(0)
			for m := fifo; m != nil; m = m.Next {
				count += int64(len(m.Val))
				for i := range m.Val {
					if m.Val[i].Time < minT {
						minT = m.Val[i].Time
					}
				}
			}
			if minT < cell.floor.Load() {
				cell.floor.Store(minT)
			}
			if r.paranoid && minT < g {
				panic(fmt.Sprintf("tw-hj: GVT safety violated: node %d received t=%d below GVT %d", id, minT, g))
			}
			for m := fifo; m != nil; {
				for _, ev := range m.Val {
					n.absorb(r, ev)
				}
				next := m.Next
				n.freeMail(m)
				m = next
			}
			cell.recvd.Add(count)
		}

		// Injected rollback storm: undo the newer half of the processed
		// log as if a straggler had arrived. Semantics-preserving, same
		// as the barrier engine's injection point.
		if h := r.hooks; h != nil && h.Rollback != nil && len(n.log) > 1 && h.Rollback(n.id, int(n.sliceSeq)) {
			n.rollbackBefore(r, n.log[len(n.log)/2].ev.Time, -1)
		}

		// Fossil-collect to the last published GVT: commit and trim off
		// the critical path, amortized over slices.
		n.fossilCollect(g, r.record)

		// Process optimistically up to the window horizon. The window is
		// local, matching the barrier engine's documented semantics: "do
		// not run more than W ahead of your own earliest pending work" —
		// so progress never waits on the GVT sweep (whose published GVT
		// governs memory and the adaptive throttle, not the horizon).
		horizon := TimeInfinity
		if w := r.effWin.Load(); w > 0 {
			if top := n.next(); top != nil {
				if horizon = top.Time + w; horizon < top.Time {
					horizon = TimeInfinity // overflow on huge windows
				}
			}
		}
		processed := 0
		for {
			top := n.next()
			if top == nil || top.Time > horizon {
				break
			}
			n.process(r, n.pending[top.Port].popFront())
			if processed++; processed%1024 == 0 && r.done.Load() {
				return
			}
		}
		if processed > 0 {
			r.progress.Add(uint64(processed))
		}

		// Flush sends (counting each before its push), then republish the
		// floor. Order matters: raising the floor before the flush could
		// let a sweep publish a GVT above an anti-message we are about to
		// send.
		n.flush(r, hctx)
		floor := int64(TimeInfinity)
		pending := false
		if top := n.next(); top != nil {
			floor, pending = top.Time, true
		}
		cell.floor.Store(floor)

		// A drained node cancels its stale wakeup ticket, if the sweep
		// has not consumed it already.
		if !pending {
			if tk := n.ticket.Swap(nil); tk != nil {
				tk.Cancel()
			}
		}

		// Yield protocol: clear the flag, then re-check the mailbox. A
		// producer that pushed before the clear saw sched=true and did
		// not spawn — the re-check picks its mail up here; a producer
		// that pushes after it wins the CAS and spawns a fresh slice.
		// Either way exactly one slice owns the mail.
		n.sched.Store(false)
		if !n.mb.Empty() && n.sched.CompareAndSwap(false, true) {
			continue
		}
		// Returning with pending work beyond the horizon: leave a ticket
		// so the GVT sweep can reschedule this node once GVT advances —
		// there is no "next round" to pick it up. Install-by-CAS: if a
		// concurrent slice (spawned after the flag cleared) already left
		// one, release ours immediately.
		if pending {
			tk := hctx.Reserve(r.sliceTask, id)
			if !n.ticket.CompareAndSwap(nil, tk) {
				tk.Cancel()
			}
		}
		return
	}
}

// absorb applies one received event: anti-messages annihilate, late
// positives (stragglers) roll the node back, and everything else queues
// on its port.
func (n *twhjNode) absorb(r *twhjRun, ev twEvent) {
	if ev.Anti {
		n.annihilate(r, ev)
		return
	}
	if n.lvt >= 0 && ev.Time < n.lvt {
		n.stragglers++
		n.rollbackBefore(r, ev.Time, -1)
	}
	n.pending[ev.Port].pushBack(ev)
}

// next returns the earliest pending event across both ports under
// lessTWEvent (the (Time, ID) order the engine processes in), or nil.
// The event's Port names the queue it heads.
func (n *twhjNode) next() *twEvent {
	q0, q1 := &n.pending[0], &n.pending[1]
	if q1.n > 0 && (q0.n == 0 || lessTWEvent(*q1.front(), *q0.front())) {
		return q1.front()
	}
	if q0.n > 0 {
		return q0.front()
	}
	return nil
}

// annihilate handles an anti-message: remove its still-pending twin
// (the cheap cancel), or roll back the twin's processing. Positives
// always arrive before their antis (per-sender FIFO through the
// mailbox), and a fossil-collected positive can never meet its anti
// (any in-transit anti blocks the GVT snapshot; see DESIGN §16) — so an
// anti that finds no twin is a protocol violation, and panics.
func (n *twhjNode) annihilate(r *twhjRun, anti twEvent) {
	if n.pending[anti.Port].remove(anti.Time, anti.ID) {
		n.ring.Record(obs.EvAbort, int64(n.id), anti.Time)
		return
	}
	// The log is nondecreasing in event time (a straggler truncates it
	// before being appended), so only the anti's own time cohort can
	// hold the matching positive — binary-search to it instead of
	// scanning the whole speculative history.
	lo := sort.Search(len(n.log), func(i int) bool { return n.log[i].ev.Time >= anti.Time })
	for i := lo; i < len(n.log) && n.log[i].ev.Time == anti.Time; i++ {
		if n.log[i].ev.ID == anti.ID {
			n.rollbackBefore(r, anti.Time, anti.ID)
			return
		}
	}
	panic(fmt.Sprintf("tw-hj: node %d: anti-message t=%d id=%#x matches no pending or processed event", n.id, anti.Time, anti.ID))
}

// process executes one event optimistically. Pre-state is logged only
// at anchors (every saveEvery-th event, and always on an empty log);
// rollback coast-forwards from the nearest anchor.
func (n *twhjNode) process(r *twhjRun, ev twEvent) {
	rec := twhjRecord{ev: ev}
	if r.saveEvery <= 1 || len(n.log) == 0 || n.sinceSave+1 >= r.saveEvery {
		rec.preVal, rec.hasPre = n.inVal, true
		n.sinceSave = 0
	} else {
		n.sinceSave++
	}
	rec.out = n.step(&n.inVal, ev, n.out)
	n.log = append(n.log, rec)
	n.lvt = ev.Time
}

// stateBefore reconstructs the input-wire state immediately before
// log[cut] by replaying from the nearest earlier anchor (log[0] always
// carries pre-state, so the scan terminates).
func (n *twhjNode) stateBefore(cut int) [2]circuit.Value {
	j := cut
	for !n.log[j].hasPre {
		j--
	}
	v := n.log[j].preVal
	// Stamp anchors along the way: a replay that walked this prefix once
	// must never walk it end-to-end again, no matter how sparse the
	// configured save interval is. The stamped entries survive rollback
	// truncation (they sit below the cut), so repeated rollbacks into
	// the same region stay O(64) instead of O(save interval).
	for i := j; i < cut; i++ {
		if steps := i - j; steps > 0 && steps%64 == 0 && !n.log[i].hasPre {
			n.log[i].preVal = v
			n.log[i].hasPre = true
		}
		v[n.log[i].ev.Port] = n.log[i].ev.Value
	}
	return v
}

// rollbackBefore undoes every processed event with time > t (plus the
// event with ID dropID, which is annihilated rather than re-queued),
// restoring the coast-forward state and sending anti-messages for all
// undone emissions. Ties at t keep their processing, exactly like the
// barrier engine.
func (n *twhjNode) rollbackBefore(r *twhjRun, t int64, dropID int64) {
	// Entries strictly newer than t are undone; within t's own cohort
	// only the annihilated event itself is. Time-sorted log: binary-search
	// to the cohort, then scan only it for dropID.
	cut := sort.Search(len(n.log), func(i int) bool { return n.log[i].ev.Time > t })
	if dropID >= 0 {
		lo := sort.Search(cut, func(i int) bool { return n.log[i].ev.Time >= t })
		for i := lo; i < cut; i++ {
			if n.log[i].ev.ID == dropID {
				cut = i
				break
			}
		}
	}
	if cut == len(n.log) {
		return
	}
	n.rollbacks++
	state := n.stateBefore(cut)
	undone := int64(len(n.log) - cut)
	// Newest first: each re-queued event goes back at the front of its
	// port, ahead of everything that arrived after it was processed.
	for i := len(n.log) - 1; i >= cut; i-- {
		rec := &n.log[i]
		n.antis += n.cancel(n.out, rec.ev, rec.out)
		n.undone++
		if rec.ev.ID != dropID {
			n.pending[rec.ev.Port].pushFront(rec.ev)
		}
	}
	n.inVal = state
	if cut > 0 {
		n.lvt = n.log[cut-1].ev.Time
	} else {
		n.lvt = -1
	}
	n.log = n.log[:cut]
	r.undoneA.Add(undone)
	n.ring.Record(obs.EvRollback, int64(n.id), undone)
}

// fossilCollect commits log entries strictly older than gvt: output
// terminals archive them as history samples; every node counts them.
// Under incremental state saving, the surviving head record is
// materialized into an anchor first, so coast-forward never needs the
// archived prefix.
func (n *twhjNode) fossilCollect(gvt int64, record bool) {
	cut := sort.Search(len(n.log), func(i int) bool { return n.log[i].ev.Time >= gvt })
	if cut == 0 {
		return
	}
	// Trimming memmoves the surviving suffix, so collect in batches: a
	// sweep that publishes GVT every tick must not turn every slice into
	// an O(log) copy. Dead-entry memory stays bounded by the batch size.
	if cut < len(n.log) && cut < 64 {
		return
	}
	if cut < len(n.log) && !n.log[cut].hasPre {
		n.log[cut].preVal = n.stateBefore(cut)
		n.log[cut].hasPre = true
	}
	if n.kind == circuit.Output && record {
		for i := 0; i < cut; i++ {
			n.history = append(n.history, TimedValue{Time: n.log[i].ev.Time, Value: n.log[i].ev.Value})
		}
	}
	n.archived += int64(cut)
	n.log = append(n.log[:0], n.log[cut:]...)
	n.ring.Record(obs.EvCommit, int64(n.id), int64(cut))
}

// flush pushes every non-empty slot buffer to its destination's mailbox
// and schedules the destination if no slice owns it. The send counter
// rises before the push: a message must never be drainable before it is
// accounted in transit.
func (n *twhjNode) flush(r *twhjRun, hctx *hj.Ctx) {
	cell := &r.cells[n.id]
	for slot := range n.out {
		buf := n.out[slot]
		if len(buf) == 0 {
			continue
		}
		n.out[slot] = n.takeBatch()
		d := n.fanout[slot]
		q := &r.nodes[d.node]
		cell.sent.Add(int64(len(buf)))
		q.mb.Push(n.takeMail(buf))
		if q.sched.CompareAndSwap(false, true) {
			if r.noAff {
				hctx.AsyncIdx(r.sliceTask, d.node)
			} else {
				hctx.AsyncIdxOn(int(q.home), r.sliceTask, d.node)
			}
		}
	}
}

// takeMail fetches a recycled mail node carrying batch, carving a fresh
// chunk when the free list runs dry. Owner-only.
func (n *twhjNode) takeMail(batch []twEvent) *twMail {
	if len(n.mailFree) == 0 {
		chunk := make([]twMail, twhjMailChunk)
		for i := range chunk {
			n.mailFree = append(n.mailFree, &chunk[i])
		}
	}
	m := n.mailFree[len(n.mailFree)-1]
	n.mailFree = n.mailFree[:len(n.mailFree)-1]
	m.Val, m.Next = batch, nil
	return m
}

// freeMail retires a drained node (and its batch slice) to the owner's
// free lists; nodes migrate sender→receiver exactly like lp's mailboxes.
func (n *twhjNode) freeMail(m *twMail) {
	if cap(m.Val) > 0 && len(n.batchFree) < 64 {
		n.batchFree = append(n.batchFree, m.Val[:0])
	}
	m.Val, m.Next = nil, nil
	if len(n.mailFree) < 1024 {
		n.mailFree = append(n.mailFree, m)
	}
}

// takeBatch returns an empty send buffer, recycled when possible.
func (n *twhjNode) takeBatch() []twEvent {
	if k := len(n.batchFree); k > 0 {
		b := n.batchFree[k-1]
		n.batchFree = n.batchFree[:k-1]
		return b
	}
	return nil
}

// sweep is the asynchronous GVT daemon: a Mattern-style stable snapshot
// (double-read counters around the floor scan) yields a safe GVT, which
// drives the published fossil horizon, the adaptive optimism throttle,
// and the rescheduling of window-throttled nodes via their tickets. It
// runs until the enclosing Finish completes — tickets must keep being
// resolved or the finish scope never drains.
func (r *twhjRun) sweep(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	var prevUndone int64
	var prevProg uint64
	adaptTick := 0
	for {
		select {
		case <-stop:
			return
		default:
		}
		time.Sleep(twhjSweepInterval)

		// A single snapshot attempt rarely survives under steady traffic
		// (any in-flight message aborts it), so retry a bounded number of
		// times per tick — the sweep runs on its own goroutine, off every
		// node's critical path, and a published GVT is what lets fossil
		// collection keep log memory bounded mid-run.
		for attempt := 0; attempt < 4; attempt++ {
			g, ok := r.snapshotGVT()
			if !ok {
				continue
			}
			if g > r.gvt.Load() {
				r.gvt.Store(g)
				r.sweeps++
				if g == TimeInfinity {
					r.sweepRing.Record(obs.EvRound, r.sweeps, -1)
				} else {
					r.sweepRing.Record(obs.EvRound, r.sweeps, g)
				}
			}
			break
		}

		// Adaptive optimism throttle, every 8th tick: when rollback work
		// dominates forward progress, narrow the window; when speculation
		// runs clean, widen it back. Scheduling-only — results are
		// invariant under any window.
		if r.adaptive {
			if adaptTick++; adaptTick%8 == 0 {
				undone, prog := r.undoneA.Load(), r.progress.Load()
				du, dp := undone-prevUndone, int64(prog-prevProg)
				prevUndone, prevProg = undone, prog
				w := r.effWin.Load()
				switch {
				case dp > 0 && du > dp/4 && w > r.minWin:
					r.effWin.Store(max(r.minWin, w/2))
					r.narrows++
				case dp > 0 && du < dp/16 && w < r.maxWin:
					r.effWin.Store(min(r.maxWin, w*2))
					r.widens++
				}
			}
		}

		// Resolve tickets: a throttled node whose ticket we can claim the
		// scheduled flag for gets rescheduled (its horizon includes its
		// own top cohort, so it always progresses); one whose flag is
		// taken has a live slice that will re-reserve at yield if needed.
		for i := range r.nodes {
			n := &r.nodes[i]
			if n.ticket.Load() == nil {
				continue
			}
			tk := n.ticket.Swap(nil)
			if tk == nil {
				continue
			}
			if n.sched.CompareAndSwap(false, true) {
				tk.Fire()
				r.fires++
			} else {
				tk.Cancel()
			}
		}
	}
}

// snapshotGVT attempts one stable GVT snapshot: read every node's
// sent/received counters, abort unless they balance (a message is in
// transit), scan the floors, then re-read the counters and abort if any
// moved. A snapshot that survives saw a moment with no message in
// flight anywhere, at which the minimum floor bounds every timestamp
// the system can ever send again — a safe GVT.
func (r *twhjRun) snapshotGVT() (int64, bool) {
	var ts, tr int64
	for i := range r.cells {
		s, v := r.cells[i].sent.Load(), r.cells[i].recvd.Load()
		r.snapSent[i], r.snapRecvd[i] = s, v
		ts += s
		tr += v
	}
	if ts != tr {
		return 0, false
	}
	g := int64(TimeInfinity)
	for i := range r.cells {
		if f := r.cells[i].floor.Load(); f < g {
			g = f
		}
	}
	for i := range r.cells {
		if r.cells[i].sent.Load() != r.snapSent[i] || r.cells[i].recvd.Load() != r.snapRecvd[i] {
			return 0, false
		}
	}
	return g, true
}
