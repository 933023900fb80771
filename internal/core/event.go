// Package core implements the paper's discrete event simulation of logic
// circuits under the Chandy–Misra conservative algorithm, in
// interchangeable engines:
//
//   - Sequential (Algorithm 1): the workset-based reference, with the
//     lightweight per-port array deques of the paper's HJlib version.
//   - SequentialPQ: the same algorithm with one priority queue per node,
//     matching the Galois-Java data-structure choices (the paper's Table 2
//     "Galois (Java)" sequential baseline).
//   - HJ (Algorithm 2 + Section 4.5 optimizations): the paper's
//     contribution — parallel simulation on the hj work-stealing runtime
//     using async/finish plus TryLock/ReleaseAllLocks.
//   - Galois (Algorithm 3): parallel simulation on the galois optimistic
//     runtime, the paper's baseline system.
//   - LPHJ: a message-passing engine — partitioned logical processes
//     exchanging null messages, each LP an hj task — the paper's stated
//     future-work direction, included as an extension (the registry
//     also holds the optimistic Time Warp engines).
//
// Every engine implements Engine and produces a Result whose settled
// output values and total event count must agree with every other engine;
// the tests enforce this and additionally check the outputs against the
// levelized combinational oracle (circuit.Evaluate).
package core

import (
	"math"

	"hjdes/internal/circuit"
)

// TimeInfinity is the NULL-message timestamp that announces a port will
// never see another event (Chandy–Misra termination).
const TimeInfinity int64 = math.MaxInt64

// Event is a signal arriving at one input port of one node.
type Event struct {
	Time  int64
	Value circuit.Value
}

// portEvent pairs an event with the input port it arrived on; it is the
// element type of merged (per-node) event queues and of ready-event
// batches. Seq is a per-node arrival sequence number used as the heap
// tiebreaker: events on one port must be processed in arrival order even
// when timestamps tie, which an unstable binary heap would otherwise
// violate.
type portEvent struct {
	Ev   Event
	Seq  int64
	Port int32
}

// TimedValue is one observed (time, value) sample at an output terminal.
type TimedValue struct {
	Time  int64
	Value circuit.Value
}
