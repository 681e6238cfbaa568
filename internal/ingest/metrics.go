package ingest

import (
	"net/http"
	"strconv"
	"sync"
	"time"

	"mlexray/internal/httpx"
	"mlexray/internal/obs"
)

// serverMetrics holds the collector's pre-registered instruments. Handlers
// and the chunk-apply path touch only these pointers — registration (the
// locked, allocating part) happens once in newServerMetrics, so the hot
// path stays zero-alloc. With DisableMetrics the struct is built over a nil
// registry: every instrument is nil, and a nil instrument's methods are
// no-ops, so instrumented code needs no conditionals.
type serverMetrics struct {
	reg *obs.Registry

	chunks    *obs.Counter // distinct chunks applied (HTTP + WAL replay)
	records   *obs.Counter // records folded into sessions
	frames    *obs.Counter // newly seen distinct frame tags
	bytes     *obs.Counter // wire bytes applied
	dupChunks *obs.Counter // retry replays acked without re-ingesting

	rateLimited *obs.Counter // 429 token-bucket rejections
	capRejects  *obs.Counter // 503 session-cap rejections

	evictions     *obs.Counter
	resurrections *obs.Counter
	sessionsLive  *obs.Gauge

	ingestLatency *obs.Histogram // whole POST /ingest request
	walAppend     *obs.Histogram // serialize + write + fsync of one entry
	walFsync      *obs.Histogram // the fsync alone (the durability tax)

	// responses is the per-status lazy counter cache: statuses appear as
	// they happen, and repeat lookups are a read-locked map hit instead of
	// a registry round-trip.
	respMu    sync.RWMutex
	responses map[int]*obs.Counter
}

// newServerMetrics registers the collector's metric families on reg (nil:
// metrics disabled, all instruments nil).
func newServerMetrics(reg *obs.Registry) *serverMetrics {
	lat := obs.LatencyBounds()
	return &serverMetrics{
		reg: reg,
		chunks: reg.Counter("mlexray_ingest_chunks_total",
			"Distinct chunks applied to sessions (live ingest and WAL replay)."),
		records: reg.Counter("mlexray_ingest_records_total",
			"Telemetry records folded into sessions."),
		frames: reg.Counter("mlexray_ingest_frames_total",
			"Distinct frame tags first seen across all sessions."),
		bytes: reg.Counter("mlexray_ingest_bytes_total",
			"Wire bytes of applied chunks."),
		dupChunks: reg.Counter("mlexray_ingest_duplicate_chunks_total",
			"Retried chunks acknowledged without re-ingesting."),
		rateLimited: reg.Counter("mlexray_ingest_rate_limited_total",
			"Chunks rejected 429 by the per-device token bucket."),
		capRejects: reg.Counter("mlexray_ingest_session_cap_rejects_total",
			"Chunks rejected 503 by the max-sessions cap."),
		evictions: reg.Counter("mlexray_ingest_sessions_evicted_total",
			"Sessions evicted for idleness (WAL kept for resurrection)."),
		resurrections: reg.Counter("mlexray_ingest_sessions_resurrected_total",
			"Evicted sessions rebuilt from their WAL segments."),
		sessionsLive: reg.Gauge("mlexray_ingest_sessions_live",
			"Device sessions currently tracked in memory."),
		ingestLatency: reg.Histogram("mlexray_ingest_request_seconds",
			"POST /ingest latency (admission through response).", lat),
		walAppend: reg.Histogram("mlexray_wal_append_seconds",
			"WAL entry append latency including the fsync.", lat),
		walFsync: reg.Histogram("mlexray_wal_fsync_seconds",
			"WAL fsync latency alone (the durability tax).", lat),
		responses: make(map[int]*obs.Counter),
	}
}

// response returns the counter for one HTTP status, registering the series
// on first sight.
func (m *serverMetrics) response(status int) *obs.Counter {
	if m.reg == nil {
		return nil
	}
	m.respMu.RLock()
	c, ok := m.responses[status]
	m.respMu.RUnlock()
	if ok {
		return c
	}
	m.respMu.Lock()
	defer m.respMu.Unlock()
	if c, ok := m.responses[status]; ok {
		return c
	}
	c = m.reg.Counter("mlexray_ingest_responses_total",
		"POST /ingest responses by status.", obs.L("status", strconv.Itoa(status)))
	m.responses[status] = c
	return c
}

// instrument wraps the ingest handler with the request-level telemetry:
// latency histogram, per-status response counter, and — when the client
// sent X-MLEXray-Trace — an "ingest" span in the trace ring. With metrics
// and tracing both disabled the handler runs bare.
func (s *Server) instrument(next http.HandlerFunc) http.Handler {
	if s.met.reg == nil && s.traces == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sc := httpx.CaptureStatus(w)
		next(sc, r)
		s.met.ingestLatency.ObserveSince(start)
		s.met.response(sc.Status()).Inc()
		up, _ := httpx.ParseUpload(r) // span detail only: a malformed upload still gets its span
		s.traces.RecordSince(r.Header.Get(obs.TraceHeader), "ingest", up.Device, sc.Status(), start)
	})
}

// Metrics returns the collector's registry (nil when DisableMetrics) — the
// same families GET /metrics renders, for in-process scrapers like the
// storm harness.
func (s *Server) Metrics() *obs.Registry { return s.met.reg }

// TraceDump returns the buffered request spans oldest-first — the
// programmatic accessor behind GET /debug/trace.
func (s *Server) TraceDump() []obs.Span { return s.traces.Spans("") }

// Traces returns the collector's bounded span ring (nil with
// DisableMetrics) — what a daemon's -debug-addr listener mounts at
// /debug/trace.
func (s *Server) Traces() *obs.TraceRing { return s.traces }
