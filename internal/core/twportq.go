package core

// twPortQ is one input port's pending Time Warp events, kept sorted by
// lessTWEvent in a power-of-two ring buffer — the per-port FIFO queue of
// the paper's §4.5.1, made ordered so that it stays correct under
// rollback. Exactly one fanout slot drives each port and the mailbox
// keeps each sender's order, so in practice every operation touches one
// end: arrivals land at the back, events a rollback re-queues go back
// at the front, and an anti-message's still-pending twin is the last
// entry. Inserts scan from the end they start at and removal
// binary-searches (Time, ID), so any arrival order is still handled
// correctly; the FIFO property only makes it O(1). The zero value is an
// empty queue. Not safe for concurrent use (a node's slice owns it).
type twPortQ struct {
	buf  []twEvent // ring; len is zero or a power of two
	head int       // index of the earliest entry
	n    int       // number of entries
}

// at returns a pointer to the i-th entry in (Time, ID) order.
func (q *twPortQ) at(i int) *twEvent { return &q.buf[(q.head+i)&(len(q.buf)-1)] }

// front returns the earliest entry; q must be non-empty.
func (q *twPortQ) front() *twEvent { return &q.buf[q.head] }

// popFront removes and returns the earliest entry; q must be non-empty.
func (q *twPortQ) popFront() twEvent {
	ev := q.buf[q.head]
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return ev
}

// grow doubles the ring (to 8 from empty), unwrapping it to index 0.
func (q *twPortQ) grow() {
	buf := make([]twEvent, max(8, 2*len(q.buf)))
	for i := 0; i < q.n; i++ {
		buf[i] = *q.at(i)
	}
	q.buf, q.head = buf, 0
}

// pushBack inserts ev, scanning from the back: O(1) for an event no
// earlier than the last entry.
func (q *twPortQ) pushBack(ev twEvent) {
	if q.n == len(q.buf) {
		q.grow()
	}
	i := q.n
	q.n++
	for ; i > 0; i-- {
		prev := q.at(i - 1)
		if !lessTWEvent(ev, *prev) {
			break
		}
		*q.at(i) = *prev
	}
	*q.at(i) = ev
}

// pushFront inserts ev, scanning from the front: O(1) for an event no
// later than the first entry, and amortized O(1) growth when the ring
// is full.
func (q *twPortQ) pushFront(ev twEvent) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.head = (q.head - 1) & (len(q.buf) - 1)
	q.n++
	i := 0
	for ; i+1 < q.n; i++ {
		next := q.at(i + 1)
		if !lessTWEvent(*next, ev) {
			break
		}
		*q.at(i) = *next
	}
	*q.at(i) = ev
}

// remove deletes the entry with the given (Time, ID), reporting whether
// there was one. It binary-searches the key and closes the gap from the
// nearer end, so removing the last entry is O(log n).
func (q *twPortQ) remove(t, id int64) bool {
	key := twEvent{Time: t, ID: id}
	lo, hi := 0, q.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if lessTWEvent(*q.at(mid), key) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == q.n || q.at(lo).Time != t || q.at(lo).ID != id {
		return false
	}
	if lo < q.n/2 {
		for i := lo; i > 0; i-- {
			*q.at(i) = *q.at(i - 1)
		}
		q.head = (q.head + 1) & (len(q.buf) - 1)
	} else {
		for i := lo; i+1 < q.n; i++ {
			*q.at(i) = *q.at(i + 1)
		}
	}
	q.n--
	return true
}
