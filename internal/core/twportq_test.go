package core

import (
	"math/rand"
	"testing"

	"hjdes/internal/circuit"
	"hjdes/internal/queue"
)

// TestTWPortQueueMatchesHeap drives the per-port pending queue with
// random interleavings of back inserts, front re-queues, removals by
// (Time, ID) and pops, and checks every pop against a reference binary
// heap ordered by lessTWEvent (removal there is the tombstone set the
// engine used to keep). Most inserts follow the FIFO pattern the engine
// sees — arrivals no earlier than the back, re-queues no later than the
// front, cancels of the last entry — but a share of each deliberately
// breaks it, so the scanning and binary-search paths are exercised too.
func TestTWPortQueueMatchesHeap(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q twPortQ
		ref := queue.NewHeap(lessTWEvent)
		live := map[int64]twEvent{} // ID -> event still in the queue
		tomb := map[int64]bool{}
		nextID := int64(0)
		// IDs are unique but not monotone in insertion order, so equal
		// times tie-break in arbitrary order.
		freshID := func() int64 {
			nextID++
			return nextID<<8 | rng.Int63n(256)
		}
		refPop := func() (twEvent, bool) {
			for {
				ev, ok := ref.Pop()
				if !ok || !tomb[ev.ID] {
					return ev, ok
				}
				delete(tomb, ev.ID)
			}
		}
		insert := func(ev twEvent, front bool) {
			if front {
				q.pushFront(ev)
			} else {
				q.pushBack(ev)
			}
			ref.Push(ev)
			live[ev.ID] = ev
		}
		checkSorted := func(op string) {
			t.Helper()
			if q.n != len(live) {
				t.Fatalf("seed %d %s: len %d, want %d", seed, op, q.n, len(live))
			}
			for i := 1; i < q.n; i++ {
				if lessTWEvent(*q.at(i), *q.at(i - 1)) {
					t.Fatalf("seed %d %s: entries %d,%d out of order: %+v %+v", seed, op, i-1, i, *q.at(i - 1), *q.at(i))
				}
			}
		}

		backT, frontT := int64(1000), int64(1000)
		for step := 0; step < 3000; step++ {
			switch op := rng.Intn(100); {
			case op < 35: // arrival at the back
				tm := backT + rng.Int63n(3)
				if rng.Intn(8) == 0 { // out of order
					tm = backT - rng.Int63n(20)
				}
				backT = max(backT, tm)
				insert(twEvent{Time: tm, ID: freshID(), Value: circuit.Value(step & 1)}, false)
				checkSorted("pushBack")
			case op < 55: // rollback re-queue at the front
				tm := frontT - rng.Int63n(3)
				if q.n > 0 && rng.Intn(2) == 0 {
					tm = q.front().Time - rng.Int63n(2)
				}
				if rng.Intn(8) == 0 { // later than the front
					tm = frontT + rng.Int63n(40)
				}
				frontT = min(frontT, tm)
				insert(twEvent{Time: tm, ID: freshID()}, true)
				checkSorted("pushFront")
			case op < 75: // cancel: usually the last entry, else any, else a miss
				var key twEvent
				switch r := rng.Intn(10); {
				case q.n > 0 && r < 6:
					key = *q.at(q.n - 1)
				case q.n > 0 && r < 9:
					key = *q.at(rng.Intn(q.n))
				default:
					key = twEvent{Time: backT + rng.Int63n(5) - 2, ID: freshID()}
				}
				_, want := live[key.ID]
				if got := q.remove(key.Time, key.ID); got != want {
					t.Fatalf("seed %d: remove(%d, %d) = %v, want %v", seed, key.Time, key.ID, got, want)
				}
				if want {
					delete(live, key.ID)
					tomb[key.ID] = true
				}
				checkSorted("remove")
			default: // pop
				want, ok := refPop()
				if !ok {
					if q.n != 0 {
						t.Fatalf("seed %d: reference empty, queue holds %d", seed, q.n)
					}
					continue
				}
				if got := q.popFront(); got != want {
					t.Fatalf("seed %d step %d: pop %+v, reference %+v", seed, step, got, want)
				}
				delete(live, want.ID)
				checkSorted("pop")
			}
		}
		for q.n > 0 {
			want, _ := refPop()
			if got := q.popFront(); got != want {
				t.Fatalf("seed %d drain: pop %+v, reference %+v", seed, got, want)
			}
		}
		if ev, ok := refPop(); ok {
			t.Fatalf("seed %d: reference still holds %+v", seed, ev)
		}
	}
}
