package core

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hjdes/internal/circuit"
)

// Asynchronous GVT safety: a published GVT must never exceed any LP's
// local virtual time minus its in-transit sends — equivalently, no
// event may ever be delivered with a timestamp below the GVT its
// receiver can observe. These tests attack the Mattern-style
// double-read snapshot directly with delayed and duplicated deliveries,
// and then again through the full engine with the Paranoid in-engine
// assertion armed (a sub-GVT delivery panics the run).

func newGVTHarness(n int) *twhjRun {
	r := &twhjRun{
		cells:     make([]gvtCell, n),
		snapSent:  make([]int64, n),
		snapRecvd: make([]int64, n),
	}
	for i := range r.cells {
		r.cells[i].floor.Store(TimeInfinity)
	}
	r.gvt.Store(-1)
	return r
}

// TestGVTSnapshotQuiescent pins the snapshot's base cases: balanced
// counters yield the minimum floor; any imbalance (a message in
// transit, or a duplicated delivery counted without its send) aborts.
func TestGVTSnapshotQuiescent(t *testing.T) {
	r := newGVTHarness(3)
	if g, ok := r.snapshotGVT(); !ok || g != TimeInfinity {
		t.Fatalf("idle snapshot = (%d, %v), want (inf, true)", g, ok)
	}
	r.cells[0].floor.Store(40)
	r.cells[1].floor.Store(25)
	r.cells[2].floor.Store(90)
	if g, ok := r.snapshotGVT(); !ok || g != 25 {
		t.Fatalf("quiescent snapshot = (%d, %v), want (25, true)", g, ok)
	}
	// One message in transit: sent counted, receive not yet visible.
	r.cells[0].sent.Add(1)
	if _, ok := r.snapshotGVT(); ok {
		t.Fatal("snapshot succeeded with a message in transit")
	}
	// Duplicated delivery: a receive counted twice can make one cell's
	// counters look balanced against another's — totals still differ.
	r.cells[1].recvd.Add(2)
	if _, ok := r.snapshotGVT(); ok {
		t.Fatal("snapshot succeeded with a duplicated delivery imbalance")
	}
	r.cells[1].recvd.Add(-1)
	if g, ok := r.snapshotGVT(); !ok || g != 25 {
		t.Fatalf("rebalanced snapshot = (%d, %v), want (25, true)", g, ok)
	}
}

// TestGVTSnapshotUnderTraffic runs protocol-faithful actors — floor
// lowered before the receive is counted, send counted before the
// message becomes deliverable, floor republished only after sends are
// visible — while a sweeper publishes snapshots exactly like the
// engine's sweep goroutine. Deliveries are randomly delayed (a message
// may sit invisible in transit for a long time) and randomly duplicated
// via an anti-message twin (its own send/receive accounting, same
// timestamp, like a positive/anti pair). Every delivery asserts the
// published GVT never got past the message's timestamp.
func TestGVTSnapshotUnderTraffic(t *testing.T) {
	const (
		actors   = 4
		messages = 400
	)
	r := newGVTHarness(actors)
	type msg struct {
		to   int
		time int64
		dup  bool
	}
	var violated atomic.Int64
	ch := make(chan msg, actors*8)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Every actor starts at LVT 0 and sends spontaneously, so its floor
	// must read 0 before the sweeper can take a snapshot; the harness's
	// idle floor of infinity would let the first snapshot publish GVT = ∞.
	for i := range r.cells {
		r.cells[i].floor.Store(0)
	}

	// Sweeper: publish monotone GVT from successful snapshots, as the
	// engine's sweep does.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if g, ok := r.snapshotGVT(); ok && g > r.gvt.Load() {
				r.gvt.Store(g)
			}
			runtime.Gosched()
		}
	}()

	// Deliverers: drain messages after a random delay, lowering the
	// receiver's floor BEFORE counting the receive.
	for d := 0; d < 2; d++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for m := range ch {
				if rng.Intn(4) == 0 {
					time.Sleep(time.Duration(rng.Intn(50)) * time.Microsecond)
				}
				if g := r.gvt.Load(); m.time < g {
					violated.Store(m.time - g)
				}
				cell := &r.cells[m.to]
				for {
					f := cell.floor.Load()
					if m.time >= f || cell.floor.CompareAndSwap(f, m.time) {
						break
					}
				}
				cell.recvd.Add(1)
			}
		}(int64(100 + d))
	}

	// Senders: walk local virtual time forward; each step counts the
	// send, exposes the message (possibly duplicated as an anti twin),
	// then republishes the floor at the new LVT.
	var sendWG sync.WaitGroup
	for a := 0; a < actors; a++ {
		sendWG.Add(1)
		go func(id int) {
			defer sendWG.Done()
			rng := rand.New(rand.NewSource(int64(id)))
			cell := &r.cells[id]
			lvt := int64(0)
			cell.floor.Store(lvt)
			for i := 0; i < messages; i++ {
				lvt += int64(1 + rng.Intn(5))
				to := rng.Intn(actors)
				n := 1
				if rng.Intn(8) == 0 {
					n = 2 // duplicated delivery: positive + anti twin
				}
				cell.sent.Add(int64(n))
				for k := 0; k < n; k++ {
					ch <- msg{to: to, time: lvt, dup: k > 0}
				}
				// Floor republished only after the sends are visible, so
				// the in-transit messages are covered by the counters.
				cell.floor.Store(lvt)
				if rng.Intn(16) == 0 {
					runtime.Gosched()
				}
			}
			cell.floor.Store(TimeInfinity)
		}(a)
	}
	sendWG.Wait()
	close(ch)
	close(stop)
	wg.Wait()
	if d := violated.Load(); d != 0 {
		t.Fatalf("delivery observed GVT %d past its own timestamp", -d)
	}
	// All traffic drained and processed: once the owners republish their
	// floors (as the engine's slice epilogue does after draining), the
	// snapshot must succeed at infinity.
	if g, ok := r.snapshotGVT(); !ok || g > TimeInfinity {
		t.Fatalf("drained snapshot = (%d, %v), want success", g, ok)
	}
	for i := range r.cells {
		r.cells[i].floor.Store(TimeInfinity)
	}
	if g, ok := r.snapshotGVT(); !ok || g != TimeInfinity {
		t.Fatalf("republished snapshot = (%d, %v), want (inf, true)", g, ok)
	}
}

// TestGVTEngineParanoidStress arms the engine's own safety assertion (a
// received event with a timestamp below published GVT panics the run)
// and stresses it with rollback storms — which flood the system with
// positive/anti duplicate pairs — across worker counts. Any premature
// fossil horizon surfaces as a run error, not a silent wrong answer.
func TestGVTEngineParanoidStress(t *testing.T) {
	c := circuit.KoggeStone(12)
	stim := circuit.VectorWaves(c, randomWaves(c, 5, 97), c.SettleTime()+10)
	ref, err := NewSequential(Options{}).Run(c, stim)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		for seed := int64(0); seed < 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			hooks := &ChaosHooks{Rollback: func(node int32, round int) bool {
				return rng.Int63()&3 == 0
			}}
			var mu sync.Mutex
			locked := *hooks
			locked.Rollback = func(node int32, round int) bool {
				mu.Lock()
				defer mu.Unlock()
				return hooks.Rollback(node, round)
			}
			res, err := NewTWHJ(Options{Workers: workers, Paranoid: true, Chaos: &locked}).Run(c, stim)
			if err != nil {
				t.Fatalf("workers=%d seed=%d: %v", workers, seed, err)
			}
			if ok, diff := SameOutputs(ref, res); !ok {
				t.Fatalf("workers=%d seed=%d diverged: %s", workers, seed, diff)
			}
			if res.TimeWarp.Rollbacks == 0 && workers > 1 {
				t.Logf("workers=%d seed=%d: storm produced no rollbacks", workers, seed)
			}
		}
	}
}
