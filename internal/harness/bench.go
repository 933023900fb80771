package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"

	"hjdes/internal/core"
	"hjdes/internal/obs"
	"hjdes/internal/stats"
)

// BenchSchema is the version of the BenchRecord JSON shape. History:
//
//	v1 (implicit, schema field absent): timing + alloc + lp message fields
//	v2: adds "schema" and the uniform per-engine "metrics" map
//	v3: adds "attempts"/"degraded" (resilient envelope); resilient.* and
//	    checkpoint.* counters appear in "metrics" when non-clean
const BenchSchema = 3

// BenchRecord is one machine-readable benchmark measurement, the unit of
// the repository's performance trajectory (`paperbench -json`, appended
// to BENCH_*.json per PR). Timing fields follow the paper's reporting
// conventions (min for headline, mean ± CI95 for error bars); allocation
// fields are the benchmark notion of allocs/op; the message-layer fields
// are populated for the lp engine only, where the null-message ratio is
// the canonical CMB overhead metric.
type BenchRecord struct {
	Schema      int         `json:"schema"`
	Engine      string      `json:"engine"`
	Circuit     string      `json:"circuit"`
	Workers     int         `json:"workers"`
	Events      int64       `json:"events"`
	MinS        float64     `json:"min_s"`
	MeanS       float64     `json:"mean_s"`
	CI95S       float64     `json:"ci95_s"`
	AllocsPerOp uint64      `json:"allocs_per_op"`
	BytesPerOp  uint64      `json:"bytes_per_op"`
	Partitions  int         `json:"partitions,omitempty"`
	EventMsgs   int64       `json:"event_msgs,omitempty"`
	NullMsgs    int64       `json:"null_msgs,omitempty"`
	NMR         float64     `json:"nmr,omitempty"`
	Attempts    int         `json:"attempts,omitempty"`
	Degraded    bool        `json:"degraded,omitempty"`
	Metrics     obs.Metrics `json:"metrics,omitempty"`
}

// record converts a Measurement into its trajectory record.
func record(circuit string, m *Measurement) BenchRecord {
	r := BenchRecord{
		Schema:      BenchSchema,
		Engine:      m.Engine,
		Circuit:     circuit,
		Workers:     m.Workers,
		Events:      m.Events,
		MinS:        m.MinSeconds(),
		MeanS:       m.MeanSeconds(),
		CI95S:       m.CI95(),
		AllocsPerOp: m.AllocsPerOp,
		BytesPerOp:  m.BytesPerOp,
	}
	if m.Best != nil && m.Best.LP.Partitions > 0 {
		r.Partitions = m.Best.LP.Partitions
		r.EventMsgs = m.Best.LP.EventMsgs
		r.NullMsgs = m.Best.LP.NullMsgs
		r.NMR = m.Best.LP.NullRatio()
	}
	// attempts is only recorded when something non-clean happened, so
	// clean trajectories stay byte-stable across schema v2→v3.
	if m.Attempts > 1 || m.Degraded {
		r.Attempts = m.Attempts
		r.Degraded = m.Degraded
	}
	if m.Best != nil {
		r.Metrics = m.Best.Metrics
	}
	return r
}

// measure runs Measure with the config's resilient envelope, which
// every bench spec inherits.
func (cfg Config) measure(spec Spec) (*Measurement, error) {
	spec.Retries, spec.Fallback, spec.CheckpointEvery = cfg.Retries, cfg.Fallback, cfg.CheckpointEvery
	return Measure(spec)
}

// BenchSweep runs the bench-trajectory suite: per circuit, the seq
// baseline once, then the hj and lp-hj engines across the configured
// worker counts (lp-hj with one partition per worker). It returns one
// record per configuration, in a deterministic order.
func BenchSweep(cfg Config) ([]BenchRecord, error) {
	var records []BenchRecord
	for _, pc := range cfg.circuits() {
		c := pc.Build()
		stim := cfg.stimulus(c, pc)
		mSeq, err := cfg.measure(Spec{Label: pc.Name + "/seq", Circuit: c, Stim: stim,
			Factory: seqFactory, Workers: 1, Repeats: cfg.repeats(), Timeout: cfg.Timeout})
		if err != nil {
			return nil, err
		}
		records = append(records, record(pc.Name, mSeq))
		for _, w := range cfg.workerCounts() {
			mHJ, err := cfg.measure(Spec{Label: fmt.Sprintf("%s/hj/w%d", pc.Name, w), Circuit: c, Stim: stim,
				Factory: hjFactory, Workers: w, Repeats: cfg.repeats(), Timeout: cfg.Timeout})
			if err != nil {
				return nil, err
			}
			records = append(records, record(pc.Name, mHJ))
			if cfg.HJAblations && w > 1 {
				for _, abl := range []string{"hj-noaff", "hj-steal1"} {
					mA, err := cfg.measure(Spec{Label: fmt.Sprintf("%s/%s/w%d", pc.Name, abl, w), Circuit: c, Stim: stim,
						Factory: factory(abl, core.Options{}), Workers: w, Repeats: cfg.repeats(), Timeout: cfg.Timeout})
					if err != nil {
						return nil, err
					}
					records = append(records, record(pc.Name, mA))
				}
			}
			mLPHJ, err := cfg.measure(Spec{Label: fmt.Sprintf("%s/lp-hj/w%d", pc.Name, w), Circuit: c, Stim: stim,
				Factory: factory("lp-hj", core.Options{Partitions: w}), Workers: w,
				Repeats: cfg.repeats(), Timeout: cfg.Timeout})
			if err != nil {
				return nil, err
			}
			records = append(records, record(pc.Name, mLPHJ))
		}
	}
	return records, nil
}

// LPKSweep is the over-decomposition trajectory: the lp-hj engine at a
// fixed worker count (cfg.MaxWorkers) across rising partition counts K,
// measured like every BenchSweep row. K >> workers is the regime the
// engine is built for: an idle LP costs one unscheduled IndexedTask (a
// mailbox pointer and an atomic flag). Records carry Partitions so a
// trajectory diff can tell the K points apart.
func LPKSweep(cfg Config, ks []int) ([]BenchRecord, error) {
	w := cfg.MaxWorkers
	if w < 1 {
		w = 1
	}
	var records []BenchRecord
	for _, pc := range cfg.circuits() {
		c := pc.Build()
		stim := cfg.stimulus(c, pc)
		for _, k := range ks {
			m, err := cfg.measure(Spec{Label: fmt.Sprintf("%s/lp-hj/w%d/k%d", pc.Name, w, k), Circuit: c, Stim: stim,
				Factory: factory("lp-hj", core.Options{Partitions: k}), Workers: w,
				Repeats: cfg.repeats(), Timeout: cfg.Timeout})
			if err != nil {
				return nil, err
			}
			records = append(records, record(pc.Name, m))
		}
	}
	return records, nil
}

// TWSweep is the optimistic-engine trajectory: the barrier-synchronized
// timewarp engine (the ablation baseline, GVT at a global barrier every
// round) against the barrier-free tw-hj engine across optimism windows ×
// worker counts. Window 0 is unbounded optimism; a positive window W
// bounds speculation to W ticks past each node's earliest pending event
// (both engines share this local-window semantics, so the comparison
// isolates the barrier).
//
// Unlike BenchSweep this measures the engines hand-rolled and
// interleaved — repeat i of every engine runs before repeat i+1 of any —
// so slow drift in machine load cannot bias one side of the
// head-to-head. Every repeat starts from the same heap state: an explicit
// GC, then an uncounted warm-up run that refills the sync.Pool-backed
// arenas the GC emptied, then the measured run. The collector stays on
// during the measured run. An unbounded-window tw-hj run allocates
// gigabytes, so pacing the collector off for the sweep gets the process
// OOM-killed; the cost is that a mid-run collection may wipe the pools
// and add a few allocations to allocs/op. The head-to-head is decided
// on min_s.
func TWSweep(cfg Config, windows []int64) ([]BenchRecord, error) {
	names := []string{"timewarp", "tw-hj"}
	var records []BenchRecord
	for _, pc := range cfg.circuits() {
		c := pc.Build()
		stim := cfg.stimulus(c, pc)
		for _, w := range cfg.workerCounts() {
			for _, win := range windows {
				ms := make([]*Measurement, len(names))
				engines := make([]core.Engine, len(names))
				for i, name := range names {
					engines[i] = factory(name, core.Options{TimeWarpWindow: win})(w)
					ms[i] = &Measurement{
						Label:    fmt.Sprintf("%s/%s/w%d/win%d", pc.Name, engines[i].Name(), w, win),
						Engine:   engines[i].Name(),
						Workers:  w,
						Times:    stats.New(),
						Attempts: 1,
					}
				}
				var before, after runtime.MemStats
				for rep := 0; rep < cfg.repeats(); rep++ {
					for i, e := range engines {
						m := ms[i]
						runtime.GC()
						if _, err := e.Run(c, stim); err != nil { // uncounted pool-warming run
							return nil, fmt.Errorf("harness: %s warmup %d: %w", m.Label, rep, err)
						}
						runtime.ReadMemStats(&before)
						res, err := e.Run(c, stim)
						runtime.ReadMemStats(&after)
						if err != nil {
							return nil, fmt.Errorf("harness: %s run %d: %w", m.Label, rep, err)
						}
						m.Events = res.TotalEvents
						m.Times.Add(res.Elapsed.Seconds())
						m.AllocsPerOp += after.Mallocs - before.Mallocs
						m.BytesPerOp += after.TotalAlloc - before.TotalAlloc
						if m.Best == nil || res.Elapsed < m.Best.Elapsed {
							m.Best = res
						}
					}
				}
				for _, m := range ms {
					m.AllocsPerOp /= uint64(cfg.repeats())
					m.BytesPerOp /= uint64(cfg.repeats())
					records = append(records, record(pc.Name, m))
				}
			}
		}
	}
	return records, nil
}

// WriteBenchJSON renders the records as an indented JSON array.
func WriteBenchJSON(w io.Writer, records []BenchRecord) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(records)
}

// BenchTable renders the records as a human-readable table (the -exp
// bench view when no -json path is given).
func BenchTable(records []BenchRecord) *Table {
	t := &Table{
		Title: "Bench trajectory: engines × workers (min/mean/ci95 seconds, allocs per run, lp null-message ratio)",
		Headers: []string{"circuit", "engine", "workers", "parts", "events", "min_s", "mean_s", "ci95_s",
			"allocs/op", "KB/op", "event_msgs", "null_msgs", "nmr"},
	}
	for _, r := range records {
		parts := "-"
		if r.Partitions > 0 {
			parts = fmt.Sprint(r.Partitions)
		}
		t.AddRow(r.Circuit, r.Engine, fmt.Sprint(r.Workers), parts, fmt.Sprint(r.Events),
			FmtSeconds(r.MinS), FmtSeconds(r.MeanS), FmtSeconds(r.CI95S),
			fmt.Sprint(r.AllocsPerOp), fmt.Sprintf("%.0f", float64(r.BytesPerOp)/1024),
			fmt.Sprint(r.EventMsgs), fmt.Sprint(r.NullMsgs), fmt.Sprintf("%.3f", r.NMR))
	}
	return t
}
