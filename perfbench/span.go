package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one interval the benchmark recorded around a call into a
// layer. Spans of one serving job share Job.
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"` // 0 for a root span
	Name   string  `json:"name"`
	Tag    string  `json:"tag,omitempty"` // engine name for run spans
	Job    int64   `json:"job,omitempty"`
	Start  float64 `json:"start_us"` // since the tracer was created
	End    float64 `json:"end_us"`
}

// tracer keeps spans in memory until the benchmark ends. A disabled
// tracer records nothing: start returns 0 and end(0) is a no-op, so the
// untraced run pays one branch per call.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span // span id i is spans[i-1]
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, t0: time.Now()}
}

// start opens a span and returns its id (0 when tracing is off).
func (t *tracer) start(name string, parent int64, tag string, job int64) int64 {
	if !t.on {
		return 0
	}
	now := float64(time.Since(t.t0).Nanoseconds()) / 1e3
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Tag: tag, Job: job, Start: now})
	return id
}

// end closes span id.
func (t *tracer) end(id int64) {
	if id == 0 {
		return
	}
	now := float64(time.Since(t.t0).Nanoseconds()) / 1e3
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// selfStat is the per-name aggregate of the self-time table.
type selfStat struct {
	Name    string
	Count   int
	TotalUS float64
	SelfUS  float64
}

// selfTimes returns, per span name, the count, total duration and self
// time: a span's duration minus the part of its interval that its
// children cover (overlapping children are merged first).
func selfTimes(spans []span) []selfStat {
	children := map[int64][][2]float64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	agg := map[string]*selfStat{}
	for _, s := range spans {
		covered := 0.0
		iv := children[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		curS, curE := 0.0, -1.0
		for _, c := range iv {
			lo, hi := max(c[0], s.Start), min(c[1], s.End)
			if hi <= lo {
				continue
			}
			if lo > curE {
				if curE > curS {
					covered += curE - curS
				}
				curS, curE = lo, hi
			} else if hi > curE {
				curE = hi
			}
		}
		if curE > curS {
			covered += curE - curS
		}
		a := agg[s.Name]
		if a == nil {
			a = &selfStat{Name: s.Name}
			agg[s.Name] = a
		}
		a.Count++
		a.TotalUS += s.End - s.Start
		a.SelfUS += s.End - s.Start - covered
	}
	out := make([]selfStat, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].SelfUS > out[b].SelfUS })
	return out
}

// printSelfTimes writes the self-time table.
func printSelfTimes(w io.Writer, st []selfStat) {
	fmt.Fprintf(w, "span self time:\n  %-22s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, s := range st {
		fmt.Fprintf(w, "  %-22s %8d %12.3f %12.3f\n", s.Name, s.Count, s.TotalUS/1e3, s.SelfUS/1e3)
	}
}

// writeSpans writes every recorded span, with the host stamp, as JSON.
func (t *tracer) writeSpans(path string, host hostStamp) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Host  hostStamp `json:"host"`
		Spans []span    `json:"spans"`
	}{host, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
