// Package queue provides the sequential and concurrent containers used by
// the DES engines: a growable ring-buffer deque (the analog of
// java.util.ArrayDeque used by the paper's optimized HJlib implementation),
// a binary-heap priority queue (the analog of java.util.PriorityQueue used
// by the Galois-Java implementation), a mutex-guarded concurrent priority
// queue (the alternative design discussed in Section 4.3 of the paper), and
// a lock-free chunked stack used as the backbone of the Galois workset.
package queue

// Deque is a growable double-ended queue backed by a power-of-two ring
// buffer. The zero value is ready to use. It is not safe for concurrent
// use; the DES engines guard each Deque with a per-port lock, which is
// exactly the design the paper adopts in Section 4.5.1.
type Deque[T any] struct {
	buf   []T
	head  int       // index of the first element
	n     int       // number of elements
	arena *Arena[T] // optional ring recycler; nil means plain allocation
}

const minDequeCap = 8

// NewDeque returns a deque with capacity for at least capacity elements.
// Huge requests clamp at the largest power-of-two int instead of
// overflowing (the allocation itself may still fail, but loudly).
func NewDeque[T any](capacity int) *Deque[T] {
	c := ceilPow2(capacity)
	if c < minDequeCap {
		c = minDequeCap
	}
	return &Deque[T]{buf: make([]T, c)}
}

// SetArena makes the deque allocate (and on Release, recycle) its ring
// through a; see the Arena type for the pointer-free-element caveat.
// Call before first use or after Release.
func (d *Deque[T]) SetArena(a *Arena[T]) { d.arena = a }

// Release empties the deque and returns its ring to the arena set via
// SetArena (dropped for GC when none). The deque remains usable.
func (d *Deque[T]) Release() {
	if d.arena != nil && len(d.buf) > 0 {
		d.arena.Put(d.buf)
	}
	d.buf = nil
	d.head, d.n = 0, 0
}

// Len reports the number of elements in the deque.
func (d *Deque[T]) Len() int { return d.n }

// Empty reports whether the deque has no elements.
func (d *Deque[T]) Empty() bool { return d.n == 0 }

// Cap reports the current capacity of the backing ring.
func (d *Deque[T]) Cap() int { return len(d.buf) }

func (d *Deque[T]) grow() {
	newCap := minDequeCap
	if len(d.buf) > 0 {
		if len(d.buf) > maxPow2/2 {
			panic("queue: Deque capacity overflow")
		}
		newCap = len(d.buf) * 2
	}
	var buf []T
	if d.arena != nil {
		buf = d.arena.Get(newCap)[:newCap]
	} else {
		buf = make([]T, newCap)
	}
	for i := 0; i < d.n; i++ {
		buf[i] = d.buf[(d.head+i)&(len(d.buf)-1)]
	}
	if d.arena != nil && len(d.buf) > 0 {
		d.arena.Put(d.buf)
	}
	d.buf = buf
	d.head = 0
}

// PushBack appends x at the tail of the deque.
func (d *Deque[T]) PushBack(x T) {
	if d.n == len(d.buf) {
		d.grow()
	}
	d.buf[(d.head+d.n)&(len(d.buf)-1)] = x
	d.n++
}

// PushFront prepends x at the head of the deque.
func (d *Deque[T]) PushFront(x T) {
	if d.n == len(d.buf) {
		d.grow()
	}
	d.head = (d.head - 1) & (len(d.buf) - 1)
	d.buf[d.head] = x
	d.n++
}

// PopFront removes and returns the head element. The second result is
// false when the deque is empty.
func (d *Deque[T]) PopFront() (T, bool) {
	var zero T
	if d.n == 0 {
		return zero, false
	}
	x := d.buf[d.head]
	d.buf[d.head] = zero // release for GC
	d.head = (d.head + 1) & (len(d.buf) - 1)
	d.n--
	return x, true
}

// PopBack removes and returns the tail element. The second result is false
// when the deque is empty.
func (d *Deque[T]) PopBack() (T, bool) {
	var zero T
	if d.n == 0 {
		return zero, false
	}
	i := (d.head + d.n - 1) & (len(d.buf) - 1)
	x := d.buf[i]
	d.buf[i] = zero
	d.n--
	return x, true
}

// Front returns the head element without removing it.
func (d *Deque[T]) Front() (T, bool) {
	var zero T
	if d.n == 0 {
		return zero, false
	}
	return d.buf[d.head], true
}

// Back returns the tail element without removing it.
func (d *Deque[T]) Back() (T, bool) {
	var zero T
	if d.n == 0 {
		return zero, false
	}
	return d.buf[(d.head+d.n-1)&(len(d.buf)-1)], true
}

// At returns the i-th element from the head (0-based) without removing it.
// It panics when i is out of range, matching slice indexing semantics.
func (d *Deque[T]) At(i int) T {
	if i < 0 || i >= d.n {
		panic("queue: Deque.At index out of range")
	}
	return d.buf[(d.head+i)&(len(d.buf)-1)]
}

// Clear removes all elements, keeping the allocated ring for reuse.
func (d *Deque[T]) Clear() {
	var zero T
	for i := 0; i < d.n; i++ {
		d.buf[(d.head+i)&(len(d.buf)-1)] = zero
	}
	d.head = 0
	d.n = 0
}

// Do calls f on every element in head-to-tail order.
func (d *Deque[T]) Do(f func(T)) {
	for i := 0; i < d.n; i++ {
		f(d.buf[(d.head+i)&(len(d.buf)-1)])
	}
}

// Slice returns the elements in head-to-tail order as a fresh slice.
func (d *Deque[T]) Slice() []T {
	out := make([]T, d.n)
	for i := 0; i < d.n; i++ {
		out[i] = d.buf[(d.head+i)&(len(d.buf)-1)]
	}
	return out
}
