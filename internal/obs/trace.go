package obs

import (
	"net/http"
	"sync"
	"time"

	"mlexray/internal/httpx"
)

// TraceHeader is the cross-tier request-trace header. The upload client
// (RemoteSink) mints one ID per chunk POST; the gateway and shard echo it
// into their spans and forward it downstream, so one slow chunk can be
// followed client → gateway → shard → WAL from a single /debug/trace dump.
const TraceHeader = "X-MLEXray-Trace"

// Span is one hop's view of a traced request.
type Span struct {
	Trace       string `json:"trace"`            // trace ID from TraceHeader
	Hop         string `json:"hop"`              // "gateway", "ingest", "wal", ...
	Detail      string `json:"detail,omitempty"` // hop-specific context (shard name, device, ...)
	Status      int    `json:"status,omitempty"` // HTTP status where applicable
	StartUnixNs int64  `json:"start_unix_ns"`    // wall-clock start
	DurationNs  int64  `json:"duration_ns"`      // hop latency
}

// DefaultTraceCapacity bounds the in-process span ring when the caller does
// not choose a size.
const DefaultTraceCapacity = 512

// TraceRing is a bounded in-process span buffer: Record overwrites the
// oldest span once full, so tracing is always on, never grows, and the
// /debug/trace dump shows the most recent window. Nil-safe like the
// metric types: a nil ring drops spans for free.
type TraceRing struct {
	mu    sync.Mutex
	spans []Span
	next  int
	full  bool
}

// NewTraceRing builds a ring holding up to capacity spans
// (DefaultTraceCapacity if capacity <= 0).
func NewTraceRing(capacity int) *TraceRing {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &TraceRing{spans: make([]Span, capacity)}
}

// Record appends a span, evicting the oldest when full.
func (t *TraceRing) Record(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[t.next] = s
	t.next++
	if t.next == len(t.spans) {
		t.next = 0
		t.full = true
	}
	t.mu.Unlock()
}

// RecordSince records a span for a hop that started at start and just
// finished — the common instrumentation shape.
func (t *TraceRing) RecordSince(trace, hop, detail string, status int, start time.Time) {
	if t == nil || trace == "" {
		return
	}
	t.Record(Span{
		Trace:       trace,
		Hop:         hop,
		Detail:      detail,
		Status:      status,
		StartUnixNs: start.UnixNano(),
		DurationNs:  time.Since(start).Nanoseconds(),
	})
}

// Spans returns the buffered spans oldest-first; when trace is non-empty
// only spans with that trace ID are returned.
func (t *TraceRing) Spans(trace string) []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var ordered []Span
	if t.full {
		ordered = append(ordered, t.spans[t.next:]...)
	}
	ordered = append(ordered, t.spans[:t.next]...)
	if trace == "" {
		return ordered
	}
	out := ordered[:0]
	for _, s := range ordered {
		if s.Trace == trace {
			out = append(out, s)
		}
	}
	return out
}

// Handler returns the GET /debug/trace endpoint: the span buffer as a JSON
// array, optionally filtered with ?trace=ID.
func (t *TraceRing) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		spans := t.Spans(req.URL.Query().Get("trace"))
		if spans == nil {
			spans = []Span{}
		}
		httpx.WriteJSON(w, http.StatusOK, spans)
	})
}
