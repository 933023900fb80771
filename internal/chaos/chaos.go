// Package chaos is a seeded, deterministic fault injector for every
// engine. One Injector, configured by one Config (or one ParseSpec
// string), fills one core.ChaosHooks; each engine consults the hooks it
// has injection sites for and ignores the rest. Faults land on two
// planes:
//
//   - The message plane (Intercept): the lp-hj engine sends every
//     cross-partition message through a per-LP lp.Interceptor that can
//     hold it back (delaying it past later traffic — a cross-port
//     reorder within the protocol's lookahead), duplicate it (null
//     messages only: clock advances are idempotent, event duplication
//     would corrupt the simulation), drop it (null messages only, to
//     induce protocol deadlocks for watchdog testing), or kill the LP at
//     its next loop top and restart it from a checkpoint.
//   - The scheduler plane (Task, Wake, Rollback): task panics before a
//     task body, lost or delayed hj wakeups, and forced Time Warp
//     rollback storms.
//
// Determinism: each LP's interceptor has its own RNG seeded from
// Config.Seed and the LP id, touched only from that LP's slices, so
// message-plane decisions are a pure function of (seed, that LP's send
// sequence). Scheduler hooks fire from many workers at once, so their
// decisions are a pure splitmix64 hash of (seed, hook stream, per-hook
// counter or (node, round) key), with lifetime caps enforced by CAS.
// Because every fault preserves the engines' invariants (per-port FIFO,
// no event duplication or loss, semantics-preserving rollbacks,
// contained panics), a chaos run must still produce bit-identical
// results to the sequential oracle, or fail loudly (Paranoid causality
// panic, structured engine error). The chaos tests assert exactly that.
package chaos

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"hjdes/internal/core"
	"hjdes/internal/lp"
	"hjdes/internal/obs"
)

// Config tunes the injector. The zero value injects nothing.
type Config struct {
	// Seed drives every fault decision; same seed, same faults.
	Seed int64

	// Message plane (lp-hj).

	// DelayProb is the probability of holding back an outgoing event
	// message until a later send to the same LP, the next null on that
	// channel, or the end of the sender's slice.
	DelayProb float64
	// MaxHeld caps messages held per LP at once; 0 means 16.
	MaxHeld int
	// DupNullProb is the probability of sending a null message twice.
	DupNullProb float64
	// DropNulls drops every null message (both per-edge NULL(∞) and
	// channel promises). Termination and clock advances then never
	// propagate across cuts, so any multi-LP run deadlocks — the induced
	// failure the stall watchdog must catch.
	DropNulls bool
	// KillProb is the per-loop-iteration probability of killing the LP
	// and restarting it from a checkpoint.
	KillProb float64
	// MaxKills caps kill-restart cycles per LP; 0 means 1 (when KillProb
	// is set).
	MaxKills int

	// Scheduler plane (every engine with a task, wake or rollback site).

	// PanicProb is the per-task probability of panicking before the task
	// body runs. The panic is contained by the engine's normal panic path
	// and surfaces as a retryable FailPanic *core.EngineError.
	PanicProb float64
	// MaxPanics caps injected panics across the injector's lifetime —
	// i.e. across every attempt of a resilient run, so a retried run can
	// eventually get through. 0 means 1 (when PanicProb is set).
	MaxPanics int
	// WakeDropProb is the probability of swallowing an hj wakeOne token
	// (a lost wakeup). Mostly recoverable in place (parking workers
	// re-scan for visible work); the residual stall window is what the
	// supervisor watchdog exists for.
	WakeDropProb float64
	// MaxWakeDrops caps dropped wake tokens; 0 means 2.
	MaxWakeDrops int
	// WakeDelayProb is the probability of delaying a wakeup by WakeDelay
	// before it proceeds.
	WakeDelayProb float64
	// WakeDelay is the injected wakeup latency; 0 means 50µs.
	WakeDelay time.Duration
	// RollbackProb is the per-(node, round) probability of forcing a Time
	// Warp node to roll back half its processed history (a rollback
	// storm). Semantics-preserving.
	RollbackProb float64
	// MaxRollbacks caps forced rollbacks; 0 means 8.
	MaxRollbacks int
}

// messagePlane reports whether any message-plane fault is configured.
func (c *Config) messagePlane() bool {
	return c.DelayProb > 0 || c.DupNullProb > 0 || c.DropNulls || c.KillProb > 0
}

// Stats counts injected faults across every run that shares the
// injector.
type Stats struct {
	Held         atomic.Int64 // event messages held back
	Released     atomic.Int64 // held messages released again
	DupedNulls   atomic.Int64
	DroppedNulls atomic.Int64
	Kills        atomic.Int64
	TaskPanics   atomic.Int64
	WakeDrops    atomic.Int64
	WakeDelays   atomic.Int64
	Rollbacks    atomic.Int64
}

func (s *Stats) String() string {
	return fmt.Sprintf("held=%d released=%d duped-nulls=%d dropped-nulls=%d kills=%d "+
		"task-panics=%d wake-drops=%d wake-delays=%d rollback-storms=%d",
		s.Held.Load(), s.Released.Load(), s.DupedNulls.Load(), s.DroppedNulls.Load(), s.Kills.Load(),
		s.TaskPanics.Load(), s.WakeDrops.Load(), s.WakeDelays.Load(), s.Rollbacks.Load())
}

// Metrics returns the fault counts as a flat metrics map under the
// "chaos." namespace. Safe to call concurrently with a run.
func (s *Stats) Metrics() obs.Metrics {
	return obs.Metrics{
		"chaos.held":            s.Held.Load(),
		"chaos.released":        s.Released.Load(),
		"chaos.duped_nulls":     s.DupedNulls.Load(),
		"chaos.dropped_nulls":   s.DroppedNulls.Load(),
		"chaos.kills":           s.Kills.Load(),
		"chaos.task_panics":     s.TaskPanics.Load(),
		"chaos.wake_drops":      s.WakeDrops.Load(),
		"chaos.wake_delays":     s.WakeDelays.Load(),
		"chaos.rollback_storms": s.Rollbacks.Load(),
	}
}

// InjectedPanic is the value thrown by an injected task panic, so tests
// (and humans reading EngineError dumps) can tell chaos faults from real
// bugs.
type InjectedPanic struct {
	Seq int64 // the task sequence number that drew the fault
}

func (p InjectedPanic) Error() string {
	return fmt.Sprintf("chaos: injected task panic (task #%d)", p.Seq)
}

// Injector injects the configured faults through core.ChaosHooks.
type Injector struct {
	cfg     Config
	Stats   Stats
	taskSeq atomic.Int64
	wakeSeq atomic.Int64
}

// New returns an injector. One injector may span several runs — every
// attempt of a resilient run, fallbacks included: message-plane
// decisions depend only on the seed and per-LP send sequences, and the
// scheduler-plane caps are lifetime caps, which is what lets a retried
// run complete once the fault budget is spent. Stats accumulate.
func New(cfg Config) *Injector {
	if cfg.MaxHeld <= 0 {
		cfg.MaxHeld = 16
	}
	if cfg.MaxKills <= 0 {
		cfg.MaxKills = 1
	}
	if cfg.MaxPanics <= 0 {
		cfg.MaxPanics = 1
	}
	if cfg.MaxWakeDrops <= 0 {
		cfg.MaxWakeDrops = 2
	}
	if cfg.WakeDelay <= 0 {
		cfg.WakeDelay = 50 * time.Microsecond
	}
	if cfg.MaxRollbacks <= 0 {
		cfg.MaxRollbacks = 8
	}
	return &Injector{cfg: cfg}
}

// Hook stream identifiers: decisions on different hooks must be
// independent even at equal call counters.
const (
	streamPanic = 1 + iota
	streamWakeDelay
	streamWakeDrop
	streamRollback
)

// Hooks returns the core.ChaosHooks wired to this injector, for
// core.Options.Chaos. Members for fault kinds that are not configured
// stay nil, so unconfigured paths cost nothing.
func (inj *Injector) Hooks() *core.ChaosHooks {
	h := &core.ChaosHooks{}
	if inj.cfg.messagePlane() {
		h.Intercept = func(lpID int) lp.Interceptor {
			return &interceptor{
				inj: inj,
				rng: rand.New(rand.NewSource(inj.cfg.Seed ^ int64(uint64(lpID+1)*0x9e3779b97f4a7c15))),
			}
		}
	}
	if inj.cfg.PanicProb > 0 {
		h.Task = func(unit int) {
			n := inj.taskSeq.Add(1)
			if hash01(inj.cfg.Seed, streamPanic, n) < inj.cfg.PanicProb &&
				bumpCapped(&inj.Stats.TaskPanics, inj.cfg.MaxPanics) {
				panic(InjectedPanic{Seq: n})
			}
		}
	}
	if inj.cfg.WakeDropProb > 0 || inj.cfg.WakeDelayProb > 0 {
		h.Wake = func() bool {
			n := inj.wakeSeq.Add(1)
			if inj.cfg.WakeDelayProb > 0 && hash01(inj.cfg.Seed, streamWakeDelay, n) < inj.cfg.WakeDelayProb {
				inj.Stats.WakeDelays.Add(1)
				time.Sleep(inj.cfg.WakeDelay)
			}
			if inj.cfg.WakeDropProb > 0 && hash01(inj.cfg.Seed, streamWakeDrop, n) < inj.cfg.WakeDropProb &&
				bumpCapped(&inj.Stats.WakeDrops, inj.cfg.MaxWakeDrops) {
				return false
			}
			return true
		}
	}
	if inj.cfg.RollbackProb > 0 {
		h.Rollback = func(node int32, round int) bool {
			// Keyed by (node, round) rather than a counter: the decision is
			// identical for every worker count, keeping chaotic timewarp
			// runs deterministic.
			key := int64(node)<<20 ^ int64(round)
			return hash01(inj.cfg.Seed, streamRollback, key) < inj.cfg.RollbackProb &&
				bumpCapped(&inj.Stats.Rollbacks, inj.cfg.MaxRollbacks)
		}
	}
	return h
}

// hash01 maps (seed, stream, n) to [0, 1) via the splitmix64 finalizer.
func hash01(seed int64, stream, n int64) float64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)<<32 + uint64(n)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// bumpCapped increments c unless it has reached cap, reporting whether
// this call won an increment. The CAS loop makes the cap exact under
// concurrent callers.
func bumpCapped(c *atomic.Int64, cap int) bool {
	for {
		cur := c.Load()
		if cur >= int64(cap) {
			return false
		}
		if c.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// portKey identifies one destination (node, port) stream for the FIFO
// hold rule.
type portKey struct{ node, port int32 }

// interceptor is one LP's fault state; all fields are confined to that
// LP's slices, which never run concurrently.
type interceptor struct {
	inj       *Injector
	rng       *rand.Rand
	held      []lp.Delivery    // insertion order; per-port FIFO inside
	heldPorts map[portKey]bool // ports with a held event (FIFO: later events must queue behind)
	kills     int
}

// takeHeldFor removes and returns, in order, every held delivery bound
// for LP to.
func (ic *interceptor) takeHeldFor(to int32) []lp.Delivery {
	var out, rest []lp.Delivery
	for _, d := range ic.held {
		if d.To == to {
			out = append(out, d)
			delete(ic.heldPorts, portKey{d.M.Node, d.M.Port})
		} else {
			rest = append(rest, d)
		}
	}
	ic.held = rest
	ic.inj.Stats.Released.Add(int64(len(out)))
	return out
}

func (ic *interceptor) OnSend(src, to int32, m lp.Msg) []lp.Delivery {
	cfg := &ic.inj.cfg
	switch m.Kind {
	case lp.MsgEvent:
		key := portKey{m.Node, m.Port}
		// FIFO rule: once an event for this (node, port) is held, every
		// later event for it must queue behind, regardless of the dice.
		mustHold := ic.heldPorts[key]
		wantHold := cfg.DelayProb > 0 && len(ic.held) < cfg.MaxHeld && ic.rng.Float64() < cfg.DelayProb
		if mustHold || wantHold {
			if ic.heldPorts == nil {
				ic.heldPorts = map[portKey]bool{}
			}
			ic.heldPorts[key] = true
			ic.held = append(ic.held, lp.Delivery{To: to, M: m})
			ic.inj.Stats.Held.Add(1)
			return nil
		}
		return []lp.Delivery{{To: to, M: m}}

	default: // MsgNullEdge, MsgNullChan
		if cfg.DropNulls {
			ic.inj.Stats.DroppedNulls.Add(1)
			// Held events still flush eventually (OnBlock); only the
			// promises vanish.
			return nil
		}
		// A null is a promise about this destination's future: everything
		// held for it must be delivered first, or the promise is a lie.
		out := ic.takeHeldFor(to)
		out = append(out, lp.Delivery{To: to, M: m})
		if cfg.DupNullProb > 0 && ic.rng.Float64() < cfg.DupNullProb {
			// Nulls are idempotent (clocks only ratchet forward), so a
			// duplicate exercises receiver tolerance without corruption.
			out = append(out, lp.Delivery{To: to, M: m})
			ic.inj.Stats.DupedNulls.Add(1)
		}
		return out
	}
}

func (ic *interceptor) OnBlock(src int32) []lp.Delivery {
	if len(ic.held) == 0 {
		return nil
	}
	out := ic.held
	ic.held = nil
	for k := range ic.heldPorts {
		delete(ic.heldPorts, k)
	}
	ic.inj.Stats.Released.Add(int64(len(out)))
	return out
}

func (ic *interceptor) CrashPoint(src int32) bool {
	cfg := &ic.inj.cfg
	if cfg.KillProb <= 0 || ic.kills >= cfg.MaxKills {
		return false
	}
	if ic.rng.Float64() >= cfg.KillProb {
		return false
	}
	ic.kills++
	ic.inj.Stats.Kills.Add(1)
	return true
}

// ParseSpec parses a command-line fault spec of comma-separated
// key[=value] fields, any mix of the two planes:
//
//	seed=N
//	message plane:   delay=P dup=P kill=P maxkills=N maxheld=N dropnulls
//	scheduler plane: panic=P maxpanics=N wakedrop=P maxwakedrops=N
//	                 wakedelay=P rollback=P maxrollbacks=N
//
// e.g. "seed=7,delay=0.3,kill=0.1,panic=0.001". An empty spec returns
// the zero Config.
func ParseSpec(spec string) (Config, error) {
	var cfg Config
	if spec == "" {
		return cfg, nil
	}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, hasVal := strings.Cut(field, "=")
		var err error
		switch key {
		case "seed":
			cfg.Seed, err = strconv.ParseInt(val, 10, 64)
		case "dropnulls":
			cfg.DropNulls = true
			if hasVal {
				cfg.DropNulls, err = strconv.ParseBool(val)
			}
		case "delay":
			cfg.DelayProb, err = strconv.ParseFloat(val, 64)
		case "dup":
			cfg.DupNullProb, err = strconv.ParseFloat(val, 64)
		case "kill":
			cfg.KillProb, err = strconv.ParseFloat(val, 64)
		case "maxkills":
			cfg.MaxKills, err = strconv.Atoi(val)
		case "maxheld":
			cfg.MaxHeld, err = strconv.Atoi(val)
		case "panic":
			cfg.PanicProb, err = strconv.ParseFloat(val, 64)
		case "maxpanics":
			cfg.MaxPanics, err = strconv.Atoi(val)
		case "wakedrop":
			cfg.WakeDropProb, err = strconv.ParseFloat(val, 64)
		case "maxwakedrops":
			cfg.MaxWakeDrops, err = strconv.Atoi(val)
		case "wakedelay":
			cfg.WakeDelayProb, err = strconv.ParseFloat(val, 64)
		case "rollback":
			cfg.RollbackProb, err = strconv.ParseFloat(val, 64)
		case "maxrollbacks":
			cfg.MaxRollbacks, err = strconv.Atoi(val)
		default:
			return cfg, fmt.Errorf("chaos: unknown spec field %q", key)
		}
		if err != nil {
			return cfg, fmt.Errorf("chaos: bad spec field %q: %v", field, err)
		}
	}
	return cfg, nil
}
