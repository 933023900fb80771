package lp

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"hjdes/internal/circuit"
	"hjdes/internal/hj"
	"hjdes/internal/partition"
)

// wedge forwards every message untouched but parks LP 0 at its first
// slice-loop crash point until release fires: the run cannot finish
// while that slice is held, so only cancellation ends it.
type wedge struct {
	lp      int
	calls   int
	release <-chan struct{}
}

func (w *wedge) OnSend(src, to int32, m Msg) []Delivery {
	return []Delivery{{To: to, M: m}}
}
func (w *wedge) OnBlock(src int32) []Delivery { return nil }
func (w *wedge) CrashPoint(src int32) bool {
	w.calls++
	if w.lp == 0 && w.calls == 1 {
		<-w.release
	}
	return false
}

func settleLP(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines leaked after cancel\n%s", buf)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRunPreCanceledContext: a context that is already canceled must come
// back immediately with its cause, without waiting for LP progress.
func TestRunPreCanceledContext(t *testing.T) {
	c := circuit.KoggeStone(16)
	plan, err := partition.Partition(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	stim := circuit.VectorWaves(c, randomWaves(c, 4, 1), c.SettleTime()+10)

	sentinel := errors.New("upstream gave up")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(sentinel)

	rt := newRuntime(t)
	base := runtime.NumGoroutine()
	start := time.Now()
	_, err = Run(c, stim, plan, rt, Config{Ctx: ctx})
	if !errors.Is(err, sentinel) {
		t.Fatalf("Run = %v, want the cancellation cause %v", err, sentinel)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("pre-canceled Run took %v", elapsed)
	}
	settleLP(t, base)
}

// TestRunMidFlightCancel: hold one LP's slice in flight, cancel from
// outside, and require a prompt return carrying the cause plus zero
// leaked goroutines — the held slice and every LP scheduled after the
// cancel unwind at their next slice-loop top.
func TestRunMidFlightCancel(t *testing.T) {
	c := circuit.KoggeStone(16)
	plan, err := partition.Partition(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	stim := circuit.VectorWaves(c, randomWaves(c, 4, 2), c.SettleTime()+10)

	sentinel := errors.New("operator hit ctrl-c")
	ctx, cancel := context.WithCancelCause(context.Background())

	rt := newRuntime(t)
	base := runtime.NumGoroutine()
	done := make(chan error, 1)
	go func() {
		_, err := Run(c, stim, plan, rt, Config{
			Ctx:            ctx,
			NewInterceptor: func(lp int) Interceptor { return &wedge{lp: lp, release: ctx.Done()} },
		})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the other LPs run out of safe work
	cancel(sentinel)

	select {
	case err := <-done:
		if !errors.Is(err, sentinel) {
			t.Fatalf("Run = %v, want the cancellation cause %v", err, sentinel)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
	settleLP(t, base)
}

// crashOnce kills each LP a fixed number of times, each at a different
// loop iteration, and otherwise forwards everything untouched.
type crashOnce struct {
	lp    int
	calls int
	kills int
	max   int
}

func (ci *crashOnce) OnSend(src, to int32, m Msg) []Delivery {
	return []Delivery{{To: to, M: m}}
}
func (ci *crashOnce) OnBlock(src int32) []Delivery { return nil }
func (ci *crashOnce) CrashPoint(src int32) bool {
	ci.calls++
	// Run-to-completion slices leave each LP only a handful of loop-top
	// crash points per run, so kill eagerly: even LPs from their first
	// loop top (the post-flood checkpoint), odd LPs from their second (a
	// mid-simulation checkpoint with applied-but-unprocessed events).
	if ci.kills < ci.max && ci.calls >= 1+ci.lp%2 {
		ci.kills++
		return true
	}
	return false
}

// settledAt returns the value of one output history at a deadline.
func settledAt(t *testing.T, h []TimedValue, deadline int64, what string) circuit.Value {
	t.Helper()
	for i := len(h) - 1; i >= 0; i-- {
		if h[i].Time <= deadline {
			return h[i].Value
		}
	}
	t.Fatalf("%s: no events by t=%d", what, deadline)
	return 0
}

// TestKillRestartBitExact: running with kill-and-restart faults at every
// LP must reproduce the fault-free run's settled outputs bit for bit —
// anything the checkpoint forgets to save or restore shows up as a
// wrong settled value (or a Paranoid causality panic). Transient glitch
// trains are not compared: they legitimately vary with slice scheduling
// even without faults.
func TestKillRestartBitExact(t *testing.T) {
	rt := newRuntime(t)
	for _, k := range []int{2, 3, 8} {
		c := circuit.KoggeStone(16)
		plan, err := partition.Partition(c, k)
		if err != nil {
			t.Fatal(err)
		}
		waves := randomWaves(c, 6, 5)
		period := c.SettleTime() + 10

		clean, err := Run(c, circuit.VectorWaves(c, waves, period), plan, rt,
			Config{Record: true, Paranoid: true})
		if err != nil {
			t.Fatalf("k=%d clean run: %v", k, err)
		}

		faulty, err := Run(c, circuit.VectorWaves(c, waves, period), plan, rt, Config{
			Record:   true,
			Paranoid: true,
			NewInterceptor: func(lp int) Interceptor {
				return &crashOnce{lp: lp, max: 2}
			},
		})
		if err != nil {
			t.Fatalf("k=%d faulty run: %v", k, err)
		}
		if faulty.Stats.Restarts == 0 {
			t.Fatalf("k=%d: no restarts happened; the fault injector is dead", k)
		}
		for w := range waves {
			deadline := int64(w+1) * period
			for name, ch := range clean.Outputs {
				want := settledAt(t, ch, deadline, name)
				got := settledAt(t, faulty.Outputs[name], deadline, name)
				if got != want {
					t.Fatalf("k=%d wave %d output %q: settled %v after %d restarts, clean run settled %v",
						k, w, name, got, faulty.Stats.Restarts, want)
				}
			}
		}
	}
}

// exclusive counts overlapping slices of one LP: CrashPoint opens each
// slice-loop iteration and OnBlock closes it, so two slices of the same
// LP running at once push active above one.
type exclusive struct {
	active     atomic.Int32
	violations *atomic.Int64
}

func (x *exclusive) OnSend(src, to int32, m Msg) []Delivery {
	return []Delivery{{To: to, M: m}}
}
func (x *exclusive) OnBlock(src int32) []Delivery {
	x.active.Add(-1)
	return nil
}
func (x *exclusive) CrashPoint(src int32) bool {
	if x.active.Add(1) > 1 {
		x.violations.Add(1)
	}
	return false
}

// TestSlicesExclusivePerLP: at most one slice per LP may run at any
// moment, from the very first slices on — including the start, where an
// early slice mails LPs whose first slice has not been spawned yet. Many
// LPs per worker make that start-up window wide; under -race any
// duplicate slice is reported even when the two do not overlap in time.
func TestSlicesExclusivePerLP(t *testing.T) {
	c := circuit.KoggeStone(64)
	plan, err := partition.Partition(c, 512)
	if err != nil {
		t.Fatal(err)
	}
	stim := circuit.VectorWaves(c, randomWaves(c, 4, 3), c.SettleTime()+10)
	rt := hj.NewRuntime(hj.Config{Workers: 4})
	defer rt.Shutdown()
	var violations atomic.Int64
	for i := 0; i < 10; i++ {
		if _, err := Run(c, stim, plan, rt, Config{
			NewInterceptor: func(int) Interceptor { return &exclusive{violations: &violations} },
		}); err != nil {
			t.Fatal(err)
		}
	}
	if n := violations.Load(); n != 0 {
		t.Fatalf("%d slice-loop iterations overlapped another slice of the same LP", n)
	}
}
