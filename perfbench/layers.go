package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"hjdes/internal/circuit"
	"hjdes/internal/core"
	"hjdes/internal/cspec"
	"hjdes/internal/hj"
	"hjdes/internal/lp"
	"hjdes/internal/queue"
)

// Layer micro-benchmarks. Each times calls into one module's exported
// functions and reports the median of a few trials.

// sink keeps measured results alive so the compiler cannot drop the
// measured calls.
var sink int64

// trials is how many times each micro-benchmark repeats; it reports the
// median.
const trials = 5

func medianOf(n int, f func() float64) float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = f()
	}
	return median(xs)
}

// layerCosts are the measured per-call costs the ns/event budget uses.
type layerCosts struct {
	gateEval, dequeHot, dequeCold, spawn, tryLock, mailbox float64 // ns
}

// gateEvalNS times circuit.Kind.Eval over c's gate mix with random
// operands: ns per evaluation.
func gateEvalNS(c *circuit.Circuit, seed int64) float64 {
	type op struct {
		k    circuit.Kind
		a, b circuit.Value
	}
	rng := rand.New(rand.NewSource(seed))
	var gates []op
	for _, n := range c.Nodes {
		if n.Kind.IsGate() {
			gates = append(gates, op{n.Kind, circuit.Value(rng.Intn(2)), circuit.Value(rng.Intn(2))})
		}
	}
	reps := 4_000_000/len(gates) + 1
	return medianOf(trials, func() float64 {
		var acc circuit.Value
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			for _, g := range gates {
				acc ^= g.k.Eval(g.a^acc, g.b)
			}
		}
		d := time.Since(t0)
		sink += int64(acc)
		return float64(d.Nanoseconds()) / float64(reps*len(gates))
	})
}

// event has the size of the engines' per-port queue entries.
type event struct {
	t    int64
	port int32
	v    uint8
}

// dequeNS times one PushBack + PopFront on a random queue.Deque out of
// n deques that each hold pop events: ns per pair.
func dequeNS(n, pop, ops int, seed int64) float64 {
	ds := make([]queue.Deque[event], n)
	for i := range ds {
		for j := 0; j < pop; j++ {
			ds[i].PushBack(event{t: int64(j)})
		}
	}
	x := uint64(seed)*0x9E3779B97F4A7C15 | 1
	return medianOf(3, func() float64 {
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			d := &ds[x%uint64(n)]
			d.PushBack(event{t: int64(i)})
			v, _ := d.PopFront()
			sink += v.t
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(ops)
	})
}

// arenaNS times one queue.Arena Get + Put: ns per pair.
func arenaNS() float64 {
	var a queue.Arena[event]
	const n = 1_000_000
	return medianOf(trials, func() float64 {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			s := a.Get(64)
			a.Put(s)
		}
		return float64(time.Since(t0).Nanoseconds()) / n
	})
}

// spawnOnce times one Finish over n Ctx.Async of an empty task on a
// runtime with all workers: ns per spawned task.
func spawnOnce(workers int) float64 {
	const n = 200_000
	rt := hj.NewRuntime(hj.Config{Workers: workers})
	defer rt.Shutdown()
	noop := func(*hj.Ctx) {}
	t0 := time.Now()
	rt.Finish(func(ctx *hj.Ctx) {
		for i := 0; i < n; i++ {
			ctx.Async(noop)
		}
	})
	return float64(time.Since(t0).Nanoseconds()) / n
}

// spawnNS runs each spawn trial in a child process (perfbench --probe
// hj.spawn) and returns the median ns per spawn of the trials that
// finished, how many crashed, and the first crash's first line. The
// probe can crash the hj runtime (a task executed twice; see README),
// and a crash must be counted, not take the benchmark down.
func spawnNS() (ns float64, crashes int, first string) {
	exe, err := os.Executable()
	if err != nil {
		return math.NaN(), trials, err.Error()
	}
	var xs []float64
	for i := 0; i < trials; i++ {
		var stderr bytes.Buffer
		cmd := exec.Command(exe, "--probe", "hj.spawn")
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		var v float64
		if err == nil {
			v, err = strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
		}
		if err != nil {
			if crashes++; first == "" {
				first, _, _ = strings.Cut(stderr.String()+err.Error(), "\n")
			}
			continue
		}
		xs = append(xs, v)
	}
	return median(xs), crashes, first
}

// tryLockNS times an uncontended Ctx.TryLock + Unlock inside a task: ns
// per pair.
func tryLockNS(rt *hj.Runtime) float64 {
	const n = 2_000_000
	l := hj.NewLock()
	return medianOf(trials, func() float64 {
		var d time.Duration
		rt.Finish(func(ctx *hj.Ctx) {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				if ctx.TryLock(l) {
					ctx.Unlock(l)
				}
			}
			d = time.Since(t0)
		})
		return float64(d.Nanoseconds()) / n
	})
}

// finishIdleUS times one empty Finish on a runtime whose workers have
// parked: µs per Finish.
func finishIdleUS(rt *hj.Runtime) float64 {
	xs := make([]float64, 40)
	for i := range xs {
		time.Sleep(2 * time.Millisecond) // let the workers park
		t0 := time.Now()
		rt.Finish(func(*hj.Ctx) {})
		xs[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	return median(xs)
}

// runtimeNewMS times hj.NewRuntime + Shutdown: ms per pair.
func runtimeNewMS(workers int) float64 {
	xs := make([]float64, 20)
	for i := range xs {
		t0 := time.Now()
		hj.NewRuntime(hj.Config{Workers: workers}).Shutdown()
		xs[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
	}
	return median(xs)
}

// mailboxNS times lp.Mailbox Push from `producers` goroutines while the
// calling goroutine drains: ns per message.
func mailboxNS(producers int) float64 {
	const per = 200_000
	return medianOf(trials, func() float64 {
		var box lp.Mailbox[int64]
		nodes := make([]lp.Mail[int64], producers*per)
		var wg sync.WaitGroup
		t0 := time.Now()
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for i := p * per; i < (p+1)*per; i++ {
					box.Push(&nodes[i])
				}
			}(p)
		}
		for got := 0; got < len(nodes); {
			m := box.Drain()
			if m == nil {
				runtime.Gosched()
			}
			for ; m != nil; m = m.Next {
				got++
			}
		}
		wg.Wait()
		return float64(time.Since(t0).Nanoseconds()) / float64(len(nodes))
	})
}

// poolGetPutUS times core.RuntimePool Get + Put of a warm runtime: µs per
// pair.
func poolGetPutUS(workers int) float64 {
	pool := core.NewRuntimePool(0)
	defer pool.Close()
	pool.Put(pool.Get(workers))
	const n = 20_000
	return medianOf(trials, func() float64 {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			pool.Put(pool.Get(workers))
		}
		return float64(time.Since(t0).Nanoseconds()) / 1e3 / n
	})
}

// resilientOverheadUS is the median time of core.Resilient minus that of
// a bare Run of the same seq engine on a tiny circuit, interleaved: µs.
func resilientOverheadUS(seed int64) (float64, error) {
	c, err := cspec.Build("koggestone-8")
	if err != nil {
		return 0, err
	}
	stim := circuit.RandomStimulus(c, 4, c.SettleTime()+10, seed)
	eng, err := core.NewEngine("seq", core.Options{DiscardOutputs: true})
	if err != nil {
		return 0, err
	}
	var bare, wrapped []float64
	for i := 0; i < 400; i++ {
		t0 := time.Now()
		if _, err := eng.Run(c, stim); err != nil {
			return 0, err
		}
		t1 := time.Now()
		if _, err := core.Resilient(context.Background(), eng, c, stim, core.ResilientConfig{}); err != nil {
			return 0, err
		}
		bare = append(bare, float64(t1.Sub(t0).Nanoseconds())/1e3)
		wrapped = append(wrapped, float64(time.Since(t1).Nanoseconds())/1e3)
	}
	return median(wrapped) - median(bare), nil
}

// measureLayers runs every layer micro-benchmark, reports each as a
// per-layer metric, and returns the costs the budget uses. c is the
// workload's circuit (its gate mix is what the model layer evaluates).
func measureLayers(e *env, c *circuit.Circuit) (layerCosts, error) {
	var lc layerCosts
	t := e.tr
	id := t.start("layers", e.root, "", 0)
	defer t.end(id)
	timeIt(t, "layer.circuit", id, "", func() { lc.gateEval = gateEvalNS(c, e.seed) })
	e.rep.set("circuit.gate_eval_ns", lc.gateEval, "ns", trials)
	timeIt(t, "layer.queue", id, "", func() {
		// hot: 64 deques x 512 events (512 KiB) stay inside L2; cold:
		// 2^18 deques x 16 events (64 MiB of events) miss it.
		lc.dequeHot = dequeNS(64, 512, 4_000_000, e.seed)
		lc.dequeCold = dequeNS(1<<18, 16, 2_000_000, e.seed)
		e.rep.set("queue.arena_getput_ns", arenaNS(), "ns", trials)
	})
	runtime.GC()
	e.rep.set("queue.deque_ns.hot", lc.dequeHot, "ns", 3)
	e.rep.set("queue.deque_ns.cold", lc.dequeCold, "ns", 3)
	timeIt(t, "layer.hj", id, "", func() {
		rt := hj.NewRuntime(hj.Config{Workers: e.workers})
		defer rt.Shutdown()
		lc.tryLock = tryLockNS(rt)
		e.rep.set("hj.finish_idle_us", finishIdleUS(rt), "us", 40)
	})
	var crashes int
	timeIt(t, "layer.hj.spawn", id, "", func() {
		var first string
		if lc.spawn, crashes, first = spawnNS(); crashes > 0 {
			fmt.Fprintf(e.log, "DEFECT: hj spawn probe crashed in %d of %d trials: %s\n", crashes, trials, first)
		}
	})
	e.rep.set("hj.spawn_ns", lc.spawn, "ns", trials-crashes)
	e.rep.set("hj.spawn_probe_crashes", float64(crashes), "count", trials)
	e.rep.set("hj.trylock_ns", lc.tryLock, "ns", trials)
	timeIt(t, "layer.hj.runtime_new", id, "", func() { e.rep.set("hj.runtime_new_ms", runtimeNewMS(e.workers), "ms", 20) })
	timeIt(t, "layer.lp", id, "", func() {
		lc.mailbox = mailboxNS(1)
		e.rep.set("lp.mailbox_ns.1p", lc.mailbox, "ns", trials)
		e.rep.set("lp.mailbox_ns.np", mailboxNS(e.workers), "ns", trials)
	})
	timeIt(t, "layer.core", id, "", func() { e.rep.set("core.pool_getput_us", poolGetPutUS(e.workers), "us", trials) })
	var err error
	timeIt(t, "layer.core.resilient", id, "", func() {
		var us float64
		if us, err = resilientOverheadUS(e.seed); err == nil {
			e.rep.set("core.resilient_overhead_us", us, "us", 400)
		}
	})
	runtime.GC()
	return lc, err
}
