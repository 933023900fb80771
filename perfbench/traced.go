package main

import (
	"fmt"
	"runtime"
	"time"

	"hjdes/internal/core"
	"hjdes/internal/obs"
)

// tracedCircuit is the --trace 1 run of a circuit workload: the layer
// micro-benchmarks, the timed rounds with counters and alternating
// spans, the ns/event budget, and a short serving probe.
func tracedCircuit(e *env, st *circuitState, budget time.Duration) error {
	lc, err := measureLayers(e, st.c)
	if err != nil {
		return err
	}
	spanOver, err := engineLayers(e, st, budget, lc)
	if err != nil {
		return err
	}
	e.rep.set("bench.span_overhead", spanOver, "ratio", len(st.engines))
	return serveProbe(e, st.cfg.spec)
}

// engineLayers runs timed rounds on st with counters and alternating
// spans, then reports the circuit, partition, core, hj, lp, tw and obs
// layer metrics and prints the ns/event budget. It returns the mean
// span overhead over the engines.
func engineLayers(e *env, st *circuitState, budget time.Duration, lc layerCosts) (float64, error) {
	for _, p := range []string{"circuit.build", "circuit.stimulus", "verify.oracle", "partition.plan"} {
		name := p + "_ms"
		if p == "verify.oracle" {
			name = "circuit.oracle_ms"
		}
		e.rep.set(name, median(st.phases[p]), "ms", len(st.phases[p]))
	}
	e.rep.set("partition.edge_cut", st.plan.EdgeCutFraction(), "ratio", 1)
	e.rep.set("partition.imbalance", st.plan.LoadBalance(), "ratio", 1)
	over, n, err := traceOverhead(e, st)
	if err != nil {
		return 0, err
	}
	e.rep.set("obs.trace_overhead", over, "ratio", n)

	st.rounds(e, budget, true, true)

	fmt.Fprintf(e.log, "tracing overhead of the benchmark's own spans (%s):\n", st.cfg.spec)
	fmt.Fprintf(e.log, "  %-8s %14s %14s %9s\n", "engine", "untraced_ns", "traced_ns", "overhead")
	var spanOver float64
	for _, er := range st.engines {
		ev := er.total("events")
		if len(er.nsPerEv) == 0 || len(er.nsSpans) == 0 || ev == 0 {
			return 0, fmt.Errorf("%s: no passing timed runs", er.name)
		}
		u, tr := median(er.nsPerEv), median(er.nsSpans)
		spanOver += (tr/u - 1) / float64(len(st.engines))
		fmt.Fprintf(e.log, "  %-8s %14.2f %14.2f %8.2f%%\n", er.name, u, tr, 100*(tr/u-1))

		n := len(er.perRun["events"])
		e.rep.set(er.name+".cold_ms", median(er.coldMS), "ms", len(er.coldMS))
		e.rep.set(er.name+".allocs_per_event", er.mallocs/ev, "count", n)
		e.rep.set(er.name+".bytes_per_event", er.bytes/ev, "B", n)
		e.rep.set(er.name+".cpu_per_wall", er.cpu.Seconds()/er.wall.Seconds(), "ratio", n)
		c := er.total
		switch er.name {
		case "hj":
			e.rep.set("hj.spawns_per_kevent", 1000*c("hj.spawns")/ev, "count", n)
			e.rep.set("hj.steals", median(er.perRun["hj.steals"]), "count", len(er.perRun["hj.steals"]))
			e.rep.set("hj.parks", median(er.perRun["hj.parks"]), "count", len(er.perRun["hj.parks"]))
			e.rep.set("hj.lock_fail_ratio", ratio(c("hj.lock_failures"), c("hj.lock_acquires", "hj.lock_failures")), "ratio", n)
		case "lp-hj":
			e.rep.set("lp.msgs_per_event", c("lp.event_msgs", "lp.null_msgs")/ev, "count", n)
			e.rep.set("lp.null_ratio", ratio(c("lp.null_msgs"), c("lp.null_msgs", "lp.event_msgs")), "ratio", n)
			e.rep.set("lp.batch_fill", ratio(c("lp.event_msgs"), c("lp.batches")), "count", n)
		case "tw-hj":
			e.rep.set("tw.efficiency", ev/(ev+c("tw.undone")), "ratio", n)
			e.rep.set("tw.rollbacks_per_event", c("tw.rollbacks")/ev, "count", n)
			e.rep.set("tw.antis_per_event", c("tw.antis")/ev, "count", n)
		}
	}
	printBudget(e, st, lc)
	return spanOver, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traceOverhead times the hj engine on the workload stimulus with and
// without the program's flight recorder (Options.Trace), interleaved,
// and returns the ratio of the medians.
func traceOverhead(e *env, st *circuitState) (float64, int, error) {
	var hjRun *engineRun
	for _, er := range st.engines {
		if er.name == "hj" {
			hjRun = er
		}
	}
	const pairs = 7
	var plain, traced []float64
	for i := 0; i < pairs; i++ {
		for _, rec := range []*obs.Recorder{nil, obs.NewRecorder(0)} {
			opts := engineOptions("hj", st.cfg, e.workers)
			opts.DiscardOutputs, opts.Trace = true, rec
			eng, err := core.NewEngine("hj", opts)
			if err != nil {
				return 0, 0, err
			}
			runtime.GC()
			t0 := time.Now()
			res, err := eng.Run(st.c, hjRun.stim)
			d := float64(time.Since(t0).Nanoseconds())
			if !e.ops.record("hj run (obs trace probe)", checkRun(res, err, hjRun.ref)) {
				continue
			}
			if rec == nil {
				plain = append(plain, d)
			} else {
				traced = append(traced, d)
			}
		}
	}
	if len(plain) == 0 || len(traced) == 0 {
		return 0, 0, fmt.Errorf("obs trace probe: no passing runs")
	}
	return median(traced) / median(plain), pairs, nil
}

// printBudget prints, per engine, the ns/event budget: each layer's
// count per event (from Result.Metrics) times its measured per-call
// cost, and the residual against the engine's measured ns/event. The
// residual is reported as it comes out; nothing is fitted. It also
// reports each residual as a per-layer metric.
func printBudget(e *env, st *circuitState, lc layerCosts) {
	dq, dqName := lc.dequeHot, "queue.deque(hot)"
	if st.cfg.coldQueue {
		dq, dqName = lc.dequeCold, "queue.deque(cold)"
	}
	type row struct {
		layer       string
		perEv, cost float64
	}
	for _, er := range st.engines {
		ev := er.total("events")
		per := func(k ...string) float64 { return er.total(k...) / ev }
		rows := []row{{"circuit.gate_eval", 1, lc.gateEval}, {dqName, 1, dq}}
		if n := per("hj.spawns"); n > 0 {
			rows = append(rows, row{"hj.spawn", n, lc.spawn})
		}
		if n := per("hj.lock_acquires", "hj.lock_failures"); n > 0 {
			rows = append(rows, row{"hj.trylock", n, lc.tryLock})
		}
		if n := per("lp.batches", "lp.null_msgs"); n > 0 {
			rows = append(rows, row{"lp.mailbox", n, lc.mailbox})
		}
		if n := per("tw.undone"); n > 0 {
			rows = append(rows, row{"tw.redo(eval+deque)", n, lc.gateEval + dq})
		}
		if n := per("tw.antis"); n > 0 {
			rows = append(rows, row{"tw.anti(mailbox)", n, lc.mailbox})
		}
		measured := median(er.nsPerEv)
		fmt.Fprintf(e.log, "ns/event budget: %s on %s, measured %.2f ns/event (n=%d)\n", er.name, st.cfg.spec, measured, len(er.nsPerEv))
		fmt.Fprintf(e.log, "  %-22s %12s %12s %12s\n", "layer", "per_event", "ns_per_call", "ns_per_event")
		sum := 0.0
		for _, r := range rows {
			sum += r.perEv * r.cost
			fmt.Fprintf(e.log, "  %-22s %12.4f %12.2f %12.2f\n", r.layer, r.perEv, r.cost, r.perEv*r.cost)
		}
		fmt.Fprintf(e.log, "  %-22s %12s %12s %12.2f\n", "residual", "", "", measured-sum)
		e.rep.set(er.name+".budget_residual_ns", measured-sum, "ns", len(er.nsPerEv))
	}
}
