package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// maxSpans bounds the in-memory trace; spans past it are counted, not kept.
const maxSpans = 400000

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public function. Parent is the ID of the span that caused it (0
// for a root); spans of one pass share Trace.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Trace   string `json:"trace"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	mu      sync.Mutex
	epoch   time.Time
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open is a span handle; the zero handle (from a nil tracer) ends as a
// no-op.
type open struct {
	t     *tracer
	id    int
	start time.Time
}

// start opens a span under parent (the zero handle for a root).
func (t *tracer) start(parent open, trace, name string) open {
	if t == nil {
		return open{}
	}
	return t.startAt(parent, trace, name, time.Now())
}

func (t *tracer) startAt(parent open, trace, name string, at time.Time) open {
	if t == nil {
		return open{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return open{}
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent.id, Trace: trace, Name: name, StartNs: at.Sub(t.epoch).Nanoseconds()})
	return open{t: t, id: id, start: at}
}

// recorded is how many spans were started so far, kept or dropped.
func (t *tracer) recorded() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans) + t.dropped
}

func (o open) end() { o.endAt(time.Now()) }

func (o open) endAt(at time.Time) {
	if o.t == nil {
		return
	}
	o.t.mu.Lock()
	o.t.spans[o.id-1].EndNs = at.Sub(o.t.epoch).Nanoseconds()
	o.t.mu.Unlock()
}

// add records an already-measured span: a child whose duration the layer
// itself reported (interp's per-node Measured) and which ended at end.
func (t *tracer) add(parent open, trace, name string, end time.Time, d time.Duration) {
	t.startAt(parent, trace, name, end.Add(-d)).endAt(end)
}

// selfTimes returns every span's self time: its duration minus the part of
// that interval its child spans cover.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, upto := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, upto), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				upto = hi
			}
		}
		self[s.ID] = s.EndNs - s.StartNs - covered
	}
	return self
}

// selfByName sums self time per span name — the "where did the pass go"
// table printed under a traced run.
func selfByName(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += time.Duration(self[s.ID])
	}
	return out
}

// traceFile is the on-disk form of one workload's trace.
type traceFile struct {
	Workload string `json:"workload"`
	Quick    bool   `json:"quick,omitempty"`
	Dropped  int    `json:"dropped_spans"`
	Spans    []span `json:"spans"`
}

func (t *tracer) write(dir, workload string, quick bool) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(traceFile{Workload: workload, Quick: quick, Dropped: t.dropped, Spans: t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
