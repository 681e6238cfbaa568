// Package ingest is the telemetry ingestion service: the cloud half of the
// ML-EXray architecture, where edge devices upload their per-layer logs for
// fleet-scale deployment validation. It has two sides:
//
//   - Server accepts concurrent log streams over HTTP (POST /ingest),
//     sessionizes them by device ID and validates each stream incrementally
//     through core.StreamValidator as frames arrive — the final per-device
//     and fleet reports are identical to running core.Validate /
//     core.FleetValidate offline on the same records, at bounded memory per
//     session (per-layer tensors fold into rollups and are dropped). With a
//     data directory configured, every accepted chunk is appended to a
//     per-session write-ahead segment and fsynced before the ack, so a
//     collector restart replays the segments and recovers every session
//     exactly (see wal.go).
//
//   - RemoteSink is the device side: a core.Sink that streams a replay's
//     telemetry to the collector in chunked, optionally gzip-compressed
//     uploads with retry/backoff, so runner.ReplayBatched / runner.Fleet
//     per-device sinks feed the service directly instead of a local file.
//
// Streams may use either log encoding (JSONL or MLXB binary) and may be
// gzip-compressed; the server auto-detects per chunk via core.OpenLog. A
// device's chunks must arrive in stream order (RemoteSink posts them
// sequentially); different devices upload concurrently without coordination.
// Admission control caps the fleet: a per-device chunk-rate limit (429) and
// a max-sessions cap (503), both carrying Retry-After, which RemoteSink
// honors as transient retries.
package ingest

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"mlexray/internal/core"
	"mlexray/internal/httpx"
	"mlexray/internal/obs"
)

// ServerOptions configures a collector.
type ServerOptions struct {
	// Ref is the reference log uploads validate against. Without it the
	// server still sessionizes and counts uploads (collection mode), but the
	// report endpoints return 409 Conflict.
	Ref *core.Log
	// Validate tunes the incremental validator (zero value: defaults).
	Validate core.ValidateOptions
	// MaxBodyBytes caps one upload chunk — both its wire size and its
	// decoded record footprint, so a small gzip body cannot balloon into
	// unbounded memory; <= 0 means 1 GiB.
	MaxBodyBytes int64
	// DataDir enables the write-ahead log: accepted chunks append to
	// per-session segment files under it and are fsynced before the ack, and
	// NewServer replays existing segments so a restart recovers every
	// session exactly. Empty means in-memory only (a restart loses all
	// sessions).
	DataDir string
	// MaxSessions caps concurrently tracked device sessions; a chunk from a
	// new device past the cap gets 503 with Retry-After. <= 0 means
	// unlimited. Sessions recovered from the WAL always load (they hold
	// acked data), even past the cap.
	MaxSessions int
	// MaxChunksPerSec rate-limits each device's accepted chunks (token
	// bucket; burst ChunkBurst). Past the limit a chunk gets 429 with
	// Retry-After. <= 0 means unlimited.
	MaxChunksPerSec float64
	// ChunkBurst is the rate limiter's bucket size; <= 0 means one second's
	// worth of chunks (minimum 1).
	ChunkBurst int
	// IdleTimeout evicts sessions idle longer than this: the session slot
	// frees (a slow-loris device cannot pin it forever) while the device's
	// write-ahead segment stays on disk, so its next chunk resurrects the
	// session exactly. Requires DataDir — evicting an in-memory session
	// would silently discard acked data, so NewServer rejects that
	// combination. <= 0 disables eviction.
	IdleTimeout time.Duration
	// ReadTimeout bounds reading one upload body (per request, applied via
	// the response controller): a device trickling bytes — a slow-loris —
	// has its connection shed instead of holding a handler forever. <= 0
	// means no per-request read deadline beyond the http.Server's.
	ReadTimeout time.Duration
	// WriteTimeout bounds writing one response, same mechanism. <= 0 means
	// no per-request write deadline.
	WriteTimeout time.Duration
	// SessionRetryAfterSecs is the Retry-After hint (seconds) on 503
	// session-cap and mid-eviction rejections; <= 0 means 5.
	SessionRetryAfterSecs int
	// SegmentBytes rolls a session's active WAL segment to a new numbered
	// segment once it reaches this size, so a long-lived session's log grows
	// as finite units instead of one unbounded file. <= 0 disables rotation
	// (one segment per session, the pre-rotation behavior).
	SegmentBytes int64
	// CompactAfter merges a session's closed WAL segments into one once this
	// many have accumulated. 0 defaults to 4 when rotation is enabled;
	// negative disables compaction (closed segments accumulate).
	CompactAfter int
	// Clock overrides time.Now for the session timestamps (tests).
	Clock func() time.Time
	// Metrics is the registry the collector instruments itself into; nil
	// means a private registry per server (what GET /metrics renders
	// either way). Daemons pass a shared registry so runtime gauges and
	// collector counters land on one scrape endpoint.
	Metrics *obs.Registry
	// DisableMetrics turns self-telemetry off entirely: no registry, no
	// trace ring, the ingest path runs bare. The instrumented-overhead
	// benchmark's baseline.
	DisableMetrics bool
}

// walConfig folds the durability options into the WAL layer's tuning, with
// the append/fsync latency histograms wired in.
func (s *Server) walConfig() walConfig {
	o := &s.opts
	cfg := walConfig{dir: o.DataDir, segmentBytes: o.SegmentBytes,
		appendHist: s.met.walAppend, fsyncHist: s.met.walFsync}
	switch {
	case o.CompactAfter > 0:
		cfg.compactAfter = o.CompactAfter
	case o.CompactAfter == 0 && o.SegmentBytes > 0:
		cfg.compactAfter = defaultCompactAfter
	}
	return cfg
}

// retryAfterSessions is the default Retry-After hint (seconds) on a 503
// session-cap rejection: sessions drain on operator timescales, not
// milliseconds. SessionRetryAfterSecs overrides it.
const retryAfterSessions = 5

// Server is the ingestion collector: an http.Handler exposing
//
//	POST /ingest?device=ID   upload one log chunk (JSONL/MLXB, plain or gzip)
//	GET  /devices            all device session statuses
//	GET  /devices/{device}   one session's status + incremental report
//	GET  /fleet              fleet-wide cross-validation report
//	GET  /healthz            liveness + session count
//
// The device ID comes from the httpx.HeaderDevice header or the device query
// parameter. Handlers are safe for concurrent use; chunks of one device are
// serialized per session, different devices ingest in parallel.
type Server struct {
	opts  ServerOptions
	fleet *core.FleetStreamValidator

	// closeMu orders durable appends against Close: handlers hold the read
	// side across WAL creation+append, Close flips closed under the write
	// side first — so every ack either lands fully before Close closes the
	// segments (and a successor's recovery replays it) or answers 503. A
	// separate lock because the append path already holds sess.mu and
	// taking s.mu there would invert the s.mu → sess.mu order.
	closeMu sync.RWMutex
	closed  bool

	mu       sync.Mutex
	sessions map[string]*session
	// lastSweep rate-limits the opportunistic idle-eviction sweep; evictions
	// and resurrections count lifecycle events for /healthz and the storm
	// harness's leak checks.
	lastSweep     time.Time
	evictions     int
	resurrections int

	recovery RecoveryStats

	// met holds the pre-registered self-telemetry instruments (all nil with
	// DisableMetrics); traces is the bounded request-span ring (nil with
	// DisableMetrics). Both are nil-safe throughout, so instrumented code
	// needs no conditionals.
	met    *serverMetrics
	traces *obs.TraceRing

	mux *http.ServeMux
}

// session is one device's upload state. Its mutex serializes chunk ingestion
// (a device's frames must fold in stream order); status reads take it only
// briefly.
type session struct {
	mu      sync.Mutex
	device  string
	sv      *core.StreamValidator // nil in collection mode
	records int
	// seenFrames tracks the distinct frame tags observed, so a fleet shard
	// owning frames 1000–1999 reports 1000 frames, not 2000 (the old
	// maxFrame+1 accounting).
	seenFrames map[int]bool
	bytes      int64
	chunks     int
	// stream identifies the current upload generation (httpx.HeaderStream, a
	// random token per RemoteSink): chunk numbering restarts with each new
	// stream, so a re-run client appends instead of being mistaken for a
	// replay of the previous run's chunks.
	stream string
	// nextChunk is the next expected httpx.HeaderChunk sequence number within
	// the current stream — what makes RemoteSink retries idempotent.
	nextChunk int
	lastSeen  time.Time
	lastErr   string
	// evicted marks a session removed by the idle sweep: a handler that
	// raced the eviction (looked the session up before it left the map)
	// answers 503 instead of folding into dead state; the retry resurrects
	// the session from its WAL segment.
	evicted bool
	// wal is the session's write-ahead segment (nil without a DataDir).
	wal *sessionWAL
	// met points at the server's instruments so the shared apply path can
	// count without reaching through the server.
	met *serverMetrics
	// tokens/tokensAt implement the per-device chunk-rate token bucket.
	tokens   float64
	tokensAt time.Time
}

// NewServer builds a collector. Unset Validate fields default individually
// (core.ValidateOptions.WithDefaults). With DataDir set, existing
// write-ahead segments replay before the server accepts traffic; Recovery
// reports what was restored.
func NewServer(opts ServerOptions) (*Server, error) {
	opts.Validate = opts.Validate.WithDefaults()
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = 1 << 30
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	if opts.ChunkBurst <= 0 {
		opts.ChunkBurst = int(math.Max(1, math.Ceil(opts.MaxChunksPerSec)))
	}
	if opts.SessionRetryAfterSecs <= 0 {
		opts.SessionRetryAfterSecs = retryAfterSessions
	}
	if opts.IdleTimeout > 0 && opts.DataDir == "" {
		return nil, fmt.Errorf("ingest: IdleTimeout requires DataDir — evicting an in-memory session would discard acked data")
	}
	s := &Server{opts: opts, sessions: make(map[string]*session)}
	var reg *obs.Registry
	if !opts.DisableMetrics {
		if reg = opts.Metrics; reg == nil {
			reg = obs.NewRegistry()
		}
		s.traces = obs.NewTraceRing(obs.DefaultTraceCapacity)
	}
	// Registered before recovery: WAL replay runs the same apply path as
	// live ingest, so a restarted collector's chunk counters equal the
	// distinct chunks it holds — the storm harness reconciles
	// client-observed acks against exactly this.
	s.met = newServerMetrics(reg)
	if opts.Ref != nil {
		fv, err := core.NewFleetStreamValidator(opts.Ref, opts.Validate)
		if err != nil {
			return nil, fmt.Errorf("ingest: reference log: %w", err)
		}
		s.fleet = fv
	}
	if opts.DataDir != "" {
		if err := s.recover(); err != nil {
			return nil, err
		}
	}
	mux := http.NewServeMux()
	mux.Handle("POST /ingest", s.instrument(s.handleIngest))
	mux.HandleFunc("GET /devices", s.handleDevices)
	mux.HandleFunc("GET /devices/{device}", s.handleDevice)
	mux.HandleFunc("GET /fleet", s.handleFleet)
	mux.HandleFunc("GET /fleet/export", s.handleFleetExport)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	if s.met.reg != nil {
		mux.Handle("GET /metrics", s.met.reg.Handler())
	}
	if s.traces != nil {
		mux.Handle("GET /debug/trace", s.traces.Handler())
	}
	s.mux = mux
	return s, nil
}

// recover replays the write-ahead segments under DataDir through the stages
// live chunks pass (replayEntriesLocked), so the recovered sessions are
// byte-identical to the uninterrupted ones.
func (s *Server) recover() error {
	recovered, truncated, err := loadWAL(s.opts.DataDir)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recovery.TruncatedBytes = truncated
	for _, rs := range recovered {
		_, st, err := s.replayEntriesLocked(rs)
		if err != nil {
			return err
		}
		s.recovery.Sessions++
		s.recovery.Chunks += st.Chunks
		s.recovery.Records += st.Records
		s.recovery.SkippedChunks += st.SkippedChunks
	}
	return nil
}

// Recovery reports what the startup WAL replay restored (zero value when no
// DataDir is configured or the log was empty).
func (s *Server) Recovery() RecoveryStats { return s.recovery }

// Close releases the write-ahead segment files. The in-memory state stays
// queryable; further durable ingestion answers 503 (shutting down), so a
// successor recovering from the same DataDir cannot miss an acked chunk.
func (s *Server) Close() error {
	s.closeMu.Lock()
	s.closed = true
	s.closeMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, sess := range s.sessions {
		sess.mu.Lock()
		if sess.wal != nil {
			if err := sess.wal.Close(); err != nil && first == nil {
				first = err
			}
		}
		sess.mu.Unlock()
	}
	return first
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Session returns the named device's session validator (nil until that
// device uploads, or in collection mode) — the programmatic accessor behind
// /devices/{device}.
func (s *Server) Session(device string) *core.StreamValidator {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sess, ok := s.sessions[device]; ok {
		return sess.sv
	}
	return nil
}

// FleetReport cross-validates all device sessions — the programmatic
// accessor behind /fleet.
func (s *Server) FleetReport() (*core.FleetReport, error) {
	if s.fleet == nil {
		return nil, fmt.Errorf("ingest: no reference log loaded (collection mode)")
	}
	return s.fleet.Report()
}

// Devices returns the known device IDs, sorted.
func (s *Server) Devices() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.sessions))
	for name := range s.sessions {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func (s *Server) createSessionLocked(device string) *session {
	sess := &session{device: device, seenFrames: make(map[int]bool), met: s.met}
	if s.fleet != nil {
		sess.sv = s.fleet.Session(device)
	}
	if s.opts.MaxChunksPerSec > 0 {
		sess.tokens = float64(s.opts.ChunkBurst)
		sess.tokensAt = s.opts.Clock()
	}
	if s.opts.IdleTimeout > 0 {
		// Stamp creation so a session that never applies a chunk (its first
		// chunk failed) still ages out instead of pinning a slot forever.
		// Gated on IdleTimeout so the extra Clock() call cannot perturb the
		// deterministic-clock recovery tests.
		sess.lastSeen = s.opts.Clock()
	}
	s.sessions[device] = sess
	s.met.sessionsLive.Set(int64(len(s.sessions)))
	return sess
}

// resurrectLocked rebuilds an evicted (or pre-restart) session from its
// write-ahead segments. Returns (nil, nil) when the device has no segments;
// a log that exists but cannot replay is an error — creating a fresh
// session over it would diverge from the durable log.
func (s *Server) resurrectLocked(device string) (*session, error) {
	rs, found, err := readDeviceWAL(s.opts.DataDir, device)
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, nil
	}
	sess, _, err := s.replayEntriesLocked(rs)
	if err != nil {
		return nil, err
	}
	s.resurrections++
	s.met.resurrections.Inc()
	return sess, nil
}

// evictIdleLocked removes sessions idle past IdleTimeout: the slot frees and
// the device leaves the fleet report, while its WAL segment stays on disk
// for exact resurrection. The caller holds s.mu.
func (s *Server) evictIdleLocked(now time.Time) int {
	if s.opts.IdleTimeout <= 0 {
		return 0
	}
	n := 0
	for name, sess := range s.sessions {
		sess.mu.Lock()
		if now.Sub(sess.lastSeen) >= s.opts.IdleTimeout {
			sess.evicted = true
			if sess.wal != nil {
				sess.wal.Close()
				sess.wal = nil
			}
			delete(s.sessions, name)
			if s.fleet != nil {
				s.fleet.Remove(name)
			}
			n++
		}
		sess.mu.Unlock()
	}
	s.evictions += n
	s.met.evictions.Add(int64(n))
	s.met.sessionsLive.Set(int64(len(s.sessions)))
	return n
}

// maybeSweepLocked runs the idle sweep at most once per IdleTimeout/2 — an
// opportunistic hook on the ingest path, so eviction needs no background
// goroutine (nothing to leak, nothing to stop on Close).
func (s *Server) maybeSweepLocked() {
	if s.opts.IdleTimeout <= 0 {
		return
	}
	now := s.opts.Clock()
	if now.Sub(s.lastSweep) < s.opts.IdleTimeout/2 {
		return
	}
	s.lastSweep = now
	s.evictIdleLocked(now)
}

// EvictIdle sweeps idle sessions immediately and reports how many were
// evicted — the operator/test hook behind the opportunistic sweep.
func (s *Server) EvictIdle() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evictIdleLocked(s.opts.Clock())
}

// Evictions returns the total sessions evicted for idleness.
func (s *Server) Evictions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evictions
}

// Resurrections returns how many sessions were rebuilt from their segments
// after an eviction (startup recovery not included).
func (s *Server) Resurrections() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resurrections
}

// takeToken consumes one chunk token from the session's rate bucket,
// refilled at MaxChunksPerSec up to the burst. When empty it reports the
// wait until the next token — the 429 Retry-After value.
func (sess *session) takeToken(rate, burst float64, now time.Time) (ok bool, wait time.Duration) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if elapsed := now.Sub(sess.tokensAt).Seconds(); elapsed > 0 {
		sess.tokens = math.Min(burst, sess.tokens+elapsed*rate)
	}
	sess.tokensAt = now
	if sess.tokens >= 1 {
		sess.tokens--
		return true, 0
	}
	return false, time.Duration((1 - sess.tokens) / rate * float64(time.Second))
}

// IngestResponse is the POST /ingest reply: the chunk's contribution and the
// session totals after it.
type IngestResponse struct {
	Device       string `json:"device"`
	ChunkRecords int    `json:"chunk_records"`
	Records      int    `json:"records"`
	Frames       int    `json:"frames"`
	Chunks       int    `json:"chunks"`
	// Duplicate marks a replayed chunk (a retry whose first delivery was
	// already applied): acknowledged without re-ingesting.
	Duplicate bool `json:"duplicate,omitempty"`
}

// advanceStreamLocked applies the upload-generation bookkeeping for one
// arriving chunk: duplicate detection, gap rejection, and the sequence
// advance. Headerless chunks (chunkIdx < 0 — curl uploads) apply
// unconditionally and do NOT touch the generation state, so an interleaved
// manual upload cannot reset an active RemoteSink stream's numbering.
// Shared by the HTTP path and WAL recovery.
func (sess *session) advanceStreamLocked(stream string, chunkIdx int) (dup bool, err error) {
	if chunkIdx < 0 {
		return false, nil
	}
	if stream != sess.stream {
		// A new upload generation for this device: chunk numbering restarts,
		// data appends to the session.
		sess.stream = stream
		sess.nextChunk = 0
	}
	if chunkIdx < sess.nextChunk {
		return true, nil
	}
	if chunkIdx > sess.nextChunk {
		return false, fmt.Errorf("chunk %d arrived but chunk %d is next (lost chunk?)", chunkIdx, sess.nextChunk)
	}
	sess.nextChunk++
	return false, nil
}

// applyChunkLocked folds one admitted, durable chunk into the session: the
// validator consumes its records and the counters advance. Shared verbatim
// by the HTTP path and WAL recovery — what makes recovery exact.
func (sess *session) applyChunkLocked(recs []core.Record, wireBytes int64, now time.Time) {
	if sess.sv != nil {
		// One call per chunk: one lock round-trip, records passed by pointer.
		if err := sess.sv.ConsumeFrame(0, recs); err != nil && sess.lastErr == "" {
			// A malformed payload poisons exactly the analyses the offline
			// validator would drop; the stream keeps flowing and the status
			// surfaces the chunk's first defect.
			sess.lastErr = err.Error()
		}
	}
	newFrames := 0
	for i := range recs {
		if !sess.seenFrames[recs[i].Frame] {
			newFrames++
		}
		sess.seenFrames[recs[i].Frame] = true
	}
	// Counted here — the path shared by live ingest, startup recovery and
	// resurrection — so a restarted collector's counters equal the distinct
	// chunks it actually holds. The storm harness reconciles client-observed
	// acks against these.
	sess.met.chunks.Inc()
	sess.met.records.Add(int64(len(recs)))
	sess.met.frames.Add(int64(newFrames))
	sess.met.bytes.Add(wireBytes)
	sess.bytes += wireBytes
	sess.records += len(recs)
	sess.chunks++
	sess.lastSeen = now
	if sess.sv != nil {
		sess.sv.AddBytes(int(wireBytes))
	}
}

// DeviceStatus is one session's JSON status.
type DeviceStatus struct {
	Device   string    `json:"device"`
	Records  int       `json:"records"`
	Frames   int       `json:"frames"`
	Bytes    int64     `json:"bytes"`
	Chunks   int       `json:"chunks"`
	LastSeen time.Time `json:"last_seen"`
	Error    string    `json:"error,omitempty"`
	// Report is the device's incremental validation report (GET
	// /devices/{device} only; nil in collection mode).
	Report *core.Report `json:"report,omitempty"`
	// ReportError explains a missing Report (e.g. the stream carries no
	// model outputs yet).
	ReportError string `json:"report_error,omitempty"`
}

func (sess *session) status() DeviceStatus {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return DeviceStatus{
		Device:   sess.device,
		Records:  sess.records,
		Frames:   len(sess.seenFrames),
		Bytes:    sess.bytes,
		Chunks:   sess.chunks,
		LastSeen: sess.lastSeen,
		Error:    sess.lastErr,
	}
}

func (s *Server) handleDevices(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	out := make([]DeviceStatus, 0, len(sessions))
	for _, sess := range sessions {
		out = append(out, sess.status())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Device < out[j].Device })
	httpx.WriteJSON(w, http.StatusOK, out)
}

func (s *Server) handleDevice(w http.ResponseWriter, r *http.Request) {
	device := r.PathValue("device")
	s.mu.Lock()
	sess, ok := s.sessions[device]
	s.mu.Unlock()
	if !ok {
		httpx.Error(w, http.StatusNotFound, "unknown device %q", device)
		return
	}
	st := sess.status()
	if sess.sv != nil {
		// The incremental report: valid mid-upload (a live status) and final
		// after the last chunk, when it equals the offline Validate.
		if rep, err := sess.sv.Report(); err != nil {
			st.ReportError = err.Error()
		} else {
			st.Report = rep
		}
	} else {
		st.ReportError = "no reference log loaded (collection mode)"
	}
	httpx.WriteJSON(w, http.StatusOK, st)
}

// FleetResponse is the GET /fleet reply.
type FleetResponse struct {
	Devices []string          `json:"devices"`
	Report  *core.FleetReport `json:"report"`
}

// NewFleetResponse wraps a fleet report in its reply — a collector's own or
// a gateway's merged one. The device list derives from the report snapshot
// itself: a separate Devices() read could disagree under a concurrent
// first upload.
func NewFleetResponse(rep *core.FleetReport) FleetResponse {
	devices := make([]string, 0, len(rep.Devices))
	for _, dr := range rep.Devices {
		devices = append(devices, dr.Device)
	}
	return FleetResponse{Devices: devices, Report: rep}
}

func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	rep, err := s.FleetReport()
	if err != nil {
		httpx.Error(w, http.StatusConflict, "%v", err)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, NewFleetResponse(rep))
}

// handleFleetExport serves the per-session fleet snapshots — the shard half
// of a sharded fleet report. An aggregator gateway fans this endpoint out
// across the ring and recombines the union with core.MergeFleetSnapshots;
// because the snapshots carry accumulator sums and the merge runs the same
// finalizer as a local /fleet, the merged report is byte-identical to one
// collector holding every session.
func (s *Server) handleFleetExport(w http.ResponseWriter, r *http.Request) {
	if s.fleet == nil {
		httpx.Error(w, http.StatusConflict, "no reference log loaded (collection mode)")
		return
	}
	snaps := s.fleet.Snapshots()
	if snaps == nil {
		snaps = []core.FleetSessionSnapshot{}
	}
	httpx.WriteJSON(w, http.StatusOK, snaps)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	// Health probes run the same rate-limited idle sweep as ingest:
	// without it an otherwise-idle collector would keep reporting
	// sessions long past IdleTimeout (the sweep only ran on uploads), so
	// a gateway aggregating per-shard health would overcount. The count,
	// lifecycle totals and the sweep share one critical section — the
	// probe can never see a session both evicted and still counted.
	s.maybeSweepLocked()
	n := len(s.sessions)
	evictions, resurrections := s.evictions, s.resurrections
	s.mu.Unlock()
	body := map[string]any{
		"ok":            true,
		"devices":       n,
		"reference":     s.fleet != nil,
		"durable":       s.opts.DataDir != "",
		"evictions":     evictions,
		"resurrections": resurrections,
	}
	if s.opts.DataDir != "" {
		// Per-session segment counts and on-disk bytes, straight from the
		// directory listing — covers evicted sessions too, and makes segment
		// rotation/compaction observable without touching file contents.
		if stats, err := walStats(s.opts.DataDir); err == nil {
			body["wal"] = stats
		}
	}
	httpx.WriteJSON(w, http.StatusOK, body)
}
