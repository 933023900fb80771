package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"hjdes/internal/circuit"
	"hjdes/internal/obs"
)

// Failure reasons carried by EngineError.Reason.
const (
	FailPanic   = "panic"   // a worker/task panicked; Value and Stack are set
	FailTimeout = "timeout" // the run exceeded SuperviseConfig.Timeout (or the ctx deadline)
	FailStall   = "stall"   // the watchdog saw no progress for SuperviseConfig.StallTimeout
	FailCancel  = "cancel"  // the caller's context was canceled
	FailConfig  = "config"  // the engine rejected its Options up front (never retryable)
)

// EngineError is the structured failure of a supervised engine run: which
// engine failed, where (worker/LP/node, when known), why, and — for panics
// — the recovered value and stack. Diag carries a diagnostic snapshot
// (per-LP clocks, mailbox depths, states) when the engine can
// produce one.
type EngineError struct {
	Engine string // engine name
	Unit   string // failing unit, e.g. "worker 3" or "lp 2"; may be empty
	Reason string // one of the Fail* constants
	Value  any    // recovered panic value (FailPanic)
	Stack  []byte // stack of the panicking goroutine (FailPanic)
	Diag   string // diagnostic snapshot at failure time, if available
	Err    error  // underlying error, if the failure wrapped one
}

func (e *EngineError) Error() string {
	where := e.Engine
	if e.Unit != "" {
		where += " " + e.Unit
	}
	switch {
	case e.Value != nil:
		return fmt.Sprintf("core: %s: %s: %v", where, e.Reason, e.Value)
	case e.Err != nil:
		return fmt.Sprintf("core: %s: %s: %v", where, e.Reason, e.Err)
	}
	return fmt.Sprintf("core: %s: %s", where, e.Reason)
}

func (e *EngineError) Unwrap() error { return e.Err }

// Is lets errors.Is classify supervised failures against the standard
// context sentinels without string matching: a FailTimeout matches
// context.DeadlineExceeded and a FailCancel matches context.Canceled,
// even when the underlying Err chain was lost in transport (e.g. a panic
// value stringified by an engine boundary).
func (e *EngineError) Is(target error) bool {
	switch target {
	case context.DeadlineExceeded:
		return e.Reason == FailTimeout
	case context.Canceled:
		return e.Reason == FailCancel
	}
	return false
}

// Retryable classifies a supervised failure: panics (including injected
// chaos faults), timeouts and stalls are transient — another attempt,
// possibly resumed from a checkpoint or on a fallback engine, can
// succeed. Cancellation (the caller gave up) and engine-protocol errors
// (bad stimulus, mismatched checkpoint) are fatal.
func Retryable(err error) bool {
	var ee *EngineError
	if !errors.As(err, &ee) {
		return false
	}
	switch ee.Reason {
	case FailPanic, FailTimeout, FailStall:
		return true
	}
	return false
}

// ContextEngine is implemented by engines whose Run can be canceled: when
// ctx is done, RunContext stops the run promptly, releases its worker
// goroutines and returns context.Cause(ctx) (possibly wrapped). Engines
// that do not implement it can still be supervised, but a timed-out run
// is abandoned rather than stopped.
type ContextEngine interface {
	Engine
	RunContext(ctx context.Context, c *circuit.Circuit, stim *circuit.Stimulus) (*Result, error)
}

// ProgressReporter is implemented by engines that expose a monotonically
// nondecreasing progress counter (events processed, messages applied,
// tasks spawned) for the stall watchdog to sample during a run.
type ProgressReporter interface {
	Progress() uint64
}

// Diagnoser is implemented by engines that can describe the current run's
// internal state (per-LP clocks, mailbox depths, states) for
// failure reports.
type Diagnoser interface {
	Diagnose() string
}

// TraceSource is implemented by engines carrying a flight recorder
// (Options.Trace): failure diagnostics append the recorder's per-worker
// event tail to the Diag dump.
type TraceSource interface {
	TraceRecorder() *obs.Recorder
}

// diagTailEvents is how many flight-recorder events per worker a failure
// diagnostic includes.
const diagTailEvents = 32

// SuperviseConfig tunes one supervised run. The zero value supervises
// with no deadline and no watchdog: only panic containment applies.
type SuperviseConfig struct {
	// Timeout bounds the whole run; 0 means no bound (beyond ctx's own
	// deadline, which is always honored).
	Timeout time.Duration
	// StallTimeout arms the watchdog: if the engine's Progress counter
	// does not advance for this long, the run is failed with FailStall
	// and a diagnostic snapshot. 0 disables the watchdog. Ignored for
	// engines that are not ProgressReporters.
	StallTimeout time.Duration
	// Poll is the watchdog sampling interval; 0 derives it from
	// StallTimeout.
	Poll time.Duration
	// Checkpoints, when non-nil and the engine is a Checkpointer, routes
	// the run through RunFrom: the engine saves crash-consistent
	// snapshots into the store and — when the store already holds one
	// from an earlier failed attempt — resumes from it instead of
	// restarting from time zero.
	Checkpoints *CheckpointStore
}

// stallCause marks a context canceled by the watchdog, carrying the
// diagnostic snapshot taken just before cancellation.
type stallCause struct{ diag string }

func (s *stallCause) Error() string { return "engine made no progress (stall watchdog)" }

// Supervise runs the engine under supervision: the run is bounded by ctx
// (plus cfg.Timeout), a panic anywhere the engine can contain one — or on
// the engine's own goroutine — becomes an *EngineError instead of
// crashing the process, and the optional stall watchdog fails runs that
// stop making progress. For ContextEngines, cancellation propagates into
// the engine's workers, so a failed run does not leak goroutines; for
// plain Engines a timed-out run is abandoned (its goroutine keeps the
// final result nobody reads) and an *EngineError is returned immediately.
func Supervise(ctx context.Context, e Engine, c *circuit.Circuit, stim *circuit.Stimulus, cfg SuperviseConfig) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	if cfg.Timeout > 0 {
		var cancelT context.CancelFunc
		ctx, cancelT = context.WithTimeoutCause(ctx, cfg.Timeout, context.DeadlineExceeded)
		defer cancelT()
	}

	type outcome struct {
		res *Result
		err error
	}
	resCh := make(chan outcome, 1)
	cp, checkpointed := e.(Checkpointer)
	if cfg.Checkpoints == nil {
		checkpointed = false
	}
	ce, cancelable := e.(ContextEngine)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				resCh <- outcome{err: &EngineError{
					Engine: e.Name(), Reason: FailPanic, Value: r, Stack: debug.Stack(),
				}}
			}
		}()
		var o outcome
		switch {
		case checkpointed:
			o.res, o.err = cp.RunFrom(ctx, c, stim, cfg.Checkpoints)
		case cancelable:
			o.res, o.err = ce.RunContext(ctx, c, stim)
		default:
			o.res, o.err = e.Run(c, stim)
		}
		resCh <- o
	}()

	// Stall watchdog: sample the progress counter; if it sits still for
	// StallTimeout, snapshot diagnostics and cancel the run.
	watchStop := make(chan struct{})
	defer close(watchStop)
	if pr, ok := e.(ProgressReporter); ok && cfg.StallTimeout > 0 {
		poll := cfg.Poll
		if poll <= 0 {
			poll = cfg.StallTimeout / 8
		}
		if poll < time.Millisecond {
			poll = time.Millisecond
		}
		go func() {
			last := pr.Progress()
			quietSince := time.Now()
			ticker := time.NewTicker(poll)
			defer ticker.Stop()
			for {
				select {
				case <-watchStop:
					return
				case <-ctx.Done():
					return
				case <-ticker.C:
				}
				if now := pr.Progress(); now != last {
					last = now
					quietSince = time.Now()
					continue
				}
				if time.Since(quietSince) >= cfg.StallTimeout {
					cancel(&stallCause{diag: diagnose(e)})
					return
				}
			}
		}()
	}

	if cancelable {
		// The engine honors cancellation: wait for it to unwind, so no
		// goroutines outlive the call.
		o := <-resCh
		if o.err != nil {
			return nil, supervisedError(ctx, e, o.err)
		}
		return o.res, nil
	}
	select {
	case o := <-resCh:
		if o.err != nil {
			return nil, supervisedError(ctx, e, o.err)
		}
		return o.res, nil
	case <-ctx.Done():
		// The engine cannot be stopped; report the failure and abandon
		// the run.
		return nil, supervisedError(ctx, e, context.Cause(ctx))
	}
}

// supervisedError normalizes a failed run's error into *EngineError,
// folding in the cancellation cause and a diagnostic snapshot.
func supervisedError(ctx context.Context, e Engine, err error) error {
	var ee *EngineError
	if errors.As(err, &ee) {
		if ee.Diag == "" {
			ee.Diag = diagnose(e)
		}
		return err
	}
	reason := FailCancel
	diag := ""
	switch cause := context.Cause(ctx); {
	case cause == nil:
		// The engine failed on its own (validation, protocol error):
		// return its error untouched.
		return err
	case errors.Is(cause, context.DeadlineExceeded):
		reason = FailTimeout
	default:
		var sc *stallCause
		if errors.As(cause, &sc) {
			reason = FailStall
			diag = sc.diag
		} else if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
			return err
		}
	}
	if diag == "" {
		diag = diagnose(e)
	}
	return &EngineError{Engine: e.Name(), Reason: reason, Diag: diag, Err: err}
}

func diagnose(e Engine) string {
	diag := ""
	if d, ok := e.(Diagnoser); ok {
		diag = d.Diagnose()
	}
	if ts, ok := e.(TraceSource); ok {
		if tail := obs.FormatTail(ts.TraceRecorder(), diagTailEvents); tail != "" {
			diag += "flight recorder (last " + fmt.Sprint(diagTailEvents) + " events per worker):\n" + tail
		}
	}
	return diag
}
