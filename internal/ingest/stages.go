package ingest

// POST /ingest as a staged pipeline: admit → read → decode → commit → ack.
// Each stage is one function that either hands the chunk on or refuses it
// with a documented status; DESIGN.md §6 tabulates what each may answer
// and which lock it holds. WAL recovery and resurrection replay through
// decode and commit too (replayEntriesLocked), so "recovery runs the live
// path" holds by call graph.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"mlexray/internal/core"
	"mlexray/internal/httpx"
	"mlexray/internal/obs"
)

// refusal is a stage's documented non-200 answer.
type refusal struct {
	status     int
	retryAfter int // Retry-After seconds; 0 sends none
	msg        string
}

func refuse(status int, format string, args ...any) *refusal {
	return &refusal{status: status, msg: fmt.Sprintf(format, args...)}
}

// retryLater is a 503 carrying the session Retry-After hint.
func (s *Server) retryLater(format string, args ...any) *refusal {
	rej := refuse(http.StatusServiceUnavailable, format, args...)
	rej.retryAfter = s.opts.SessionRetryAfterSecs
	return rej
}

// chunk is one upload moving through the stages.
type chunk struct {
	up    httpx.Upload
	trace string // the request's trace ID; "" records no span
	body  []byte // raw wire bytes, exactly what the WAL persists
	sum   uint32 // httpx.Checksum(body), when announced or to be logged
	// recs are the decoded records. For a plain binary body their payloads
	// alias body (core.OpenLogBytes), so they are good until the chunk's
	// buffer is released and commit must leave nothing pointing at them:
	// the WAL writes body out and the validator copies what it retains.
	recs []core.Record
	// mem is the pooled memory body and recs live in (nil for a chunk
	// replayed from the WAL, which allocates its own).
	mem *chunkMem
	// when is the arrival time: commit stamps it for a live chunk, a
	// replayed one carries its logged arrival (so a recovered session's
	// status is identical to the uninterrupted one).
	when time.Time
	// logged marks a chunk replayed from the WAL: commit skips the durable
	// step it already went through.
	logged bool
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	up, err := httpx.ParseUpload(r)
	if err != nil {
		s.ack(w, IngestResponse{}, refuse(http.StatusBadRequest, "%v", err))
		return
	}
	// Per-request deadlines: a device trickling its body — a slow-loris —
	// times out instead of holding this handler (and, with eviction, its
	// session slot) indefinitely. Writers that cannot set deadlines
	// (httptest recorders) just get none.
	rc := http.NewResponseController(w)
	if s.opts.ReadTimeout > 0 {
		_ = rc.SetReadDeadline(time.Now().Add(s.opts.ReadTimeout))
	}
	if s.opts.WriteTimeout > 0 {
		_ = rc.SetWriteDeadline(time.Now().Add(s.opts.WriteTimeout))
	}

	c := &chunk{up: up, trace: r.Header.Get(obs.TraceHeader)}
	defer c.release() // after ack
	sess, rej := s.admit(up.Device, false)
	if rej == nil {
		rej = s.read(w, r, c)
	}
	if rej == nil {
		rej = s.decode(c)
	}
	if rej == nil && sess == nil {
		// Only a chunk that read and decoded earns a new device its slot.
		sess, rej = s.admit(up.Device, true)
	}
	var resp IngestResponse
	if rej == nil {
		resp, rej = s.commit(sess, c)
	}
	s.ack(w, resp, rej)
}

// admit is admission control, run before the body is read (create false)
// so a chunk that will not be admitted costs no read or decode: a new
// device past the session cap gets 503, a known device past its chunk rate
// 429, both with Retry-After. A new device with room gets (nil, nil); the
// second pass (create true) creates its session once its chunk has decoded,
// re-running the cap check in case another new device won the slot. A
// device with a write-ahead log on disk — evicted earlier, or acked before
// a restart under a different cap — is admitted past the cap and
// resurrects: refusing already-acked data would orphan the log. Every
// ingest passes through here, so it also hosts the rate-limited idle sweep.
func (s *Server) admit(device string, create bool) (*session, *refusal) {
	s.mu.Lock()
	s.maybeSweepLocked()
	sess := s.sessions[device]
	if sess == nil {
		if s.opts.MaxSessions > 0 && len(s.sessions) >= s.opts.MaxSessions {
			var segs []walSegmentFile
			if s.opts.DataDir != "" {
				segs, _ = deviceSegments(s.opts.DataDir, device)
			}
			if len(segs) == 0 {
				s.mu.Unlock()
				s.met.capRejects.Inc()
				return nil, s.retryLater("session cap reached (%d); retry later", s.opts.MaxSessions)
			}
		}
		if !create {
			s.mu.Unlock()
			return nil, nil
		}
		if s.opts.DataDir != "" {
			var err error
			if sess, err = s.resurrectLocked(device); err != nil {
				s.mu.Unlock()
				return nil, refuse(http.StatusInternalServerError, "%v", err)
			}
		}
		if sess == nil {
			sess = s.createSessionLocked(device)
		}
	}
	s.mu.Unlock()
	if s.opts.MaxChunksPerSec > 0 {
		// A session created for this chunk pays its token too; its fresh
		// bucket is full, so that never rejects.
		if ok, wait := sess.takeToken(s.opts.MaxChunksPerSec, float64(s.opts.ChunkBurst), s.opts.Clock()); !ok {
			s.met.rateLimited.Inc()
			rej := refuse(http.StatusTooManyRequests,
				"device %q over its chunk rate (%.3g/s); retry in %v", device, s.opts.MaxChunksPerSec, wait)
			rej.retryAfter = int(math.Ceil(wait.Seconds()))
			return nil, rej
		}
	}
	return sess, nil
}

// chunkMem is the memory one in-flight upload occupies — the body's bytes
// and the records decoded from them — recycled across requests through
// chunkPool so a steady stream of chunks allocates neither.
type chunkMem struct {
	body bytes.Buffer
	recs []core.Record
}

// poolable reports whether the memory is small enough to keep: the body
// within maxPooledBody, and the record array (a Record is some 200 bytes)
// within about as much again.
func (m *chunkMem) poolable() bool {
	return m.body.Cap() <= maxPooledBody && cap(m.recs) <= maxPooledBody/256
}

var chunkPool = sync.Pool{New: func() any { return new(chunkMem) }}

// maxPooledBody bounds both how much of an announced Content-Length read
// reserves up front and how much memory a pooled chunkMem may keep: a few of
// the sink's 1 MiB chunks. Past it a buffer grows only as bytes actually
// arrive — a lying header cannot reserve memory a body never fills — and is
// left to the garbage collector afterwards rather than pinned in the pool.
const maxPooledBody = 4 << 20

// release hands the chunk's memory back to the pool. The body, the records
// and every payload decoded in place are dead after this.
func (c *chunk) release() {
	if m := c.mem; m != nil {
		clear(c.recs) // drop the records' strings and shapes, keep the array
		m.recs = c.recs[:0]
		if m.poolable() {
			chunkPool.Put(m)
		}
	}
	c.mem, c.body, c.recs = nil, nil, nil
}

// read takes the whole body off the wire before the session is touched: a
// failed chunk is atomic (no partial ingest — safe to retry after a
// 400/disconnect) and the raw wire bytes are what the write-ahead log
// persists. The bytes land in a pooled buffer sized from Content-Length
// (trusted up to maxPooledBody), so an honest chunk is read without
// regrowth and without a fresh allocation. An announced checksum is verified
// here, so damaged bytes that would still decode never reach commit: a
// delivery and its retry are byte-equal or rejected.
func (s *Server) read(w http.ResponseWriter, r *http.Request, c *chunk) *refusal {
	c.mem = chunkPool.Get().(*chunkMem)
	c.recs = c.mem.recs
	buf := &c.mem.body
	buf.Reset()
	// ReadFrom wants bytes.MinRead of room left over to see EOF without
	// growing; the announced length is clamped before that is added, so no
	// header can overflow the sum.
	buf.Grow(int(min(max(r.ContentLength, 0), s.opts.MaxBodyBytes, maxPooledBody-bytes.MinRead)) + bytes.MinRead)
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return refuse(http.StatusRequestEntityTooLarge, "chunk exceeds the %d-byte limit", mbe.Limit)
		}
		return refuse(http.StatusBadRequest, "read chunk: %v", err)
	}
	c.body = buf.Bytes()
	if c.up.HasSum || s.opts.DataDir != "" {
		c.sum = httpx.Checksum(c.body) // for the wire check, the WAL entry, or both
	}
	if c.up.HasSum && c.up.Sum != c.sum {
		return refuse(http.StatusBadRequest, "chunk checksum mismatch: body sums to %08x, %s says %08x",
			c.sum, httpx.HeaderSum, c.up.Sum)
	}
	return nil
}

// decode turns the wire bytes (either encoding, plain or gzip — sniffed by
// core.OpenLogBytes) into records. A plain binary body decodes in place:
// its records' payloads are slices of c.body, not copies (see chunk.recs
// for who may hold them); a gzip binary body's are slices of the decoder's
// own slabs, and JSONL payloads are copies. MaxBodyBytes caps the decoded
// footprint too, checked record by record, so a small gzip body cannot
// balloon into unbounded memory (a decompression bomb gets 413, not 400) —
// and within one record the decoder buffers no more than twice what the
// body has actually inflated to, so a record length that lies is a truncated
// log (400), not an allocation.
func (s *Server) decode(c *chunk) *refusal {
	dec, _, err := core.OpenLogBytes(c.body)
	if err != nil {
		return refuse(http.StatusBadRequest, "open log stream: %v", err)
	}
	var decoded int64
	for {
		rec, err := dec.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return refuse(http.StatusBadRequest, "decode record %d: %v", len(c.recs), err)
		}
		decoded += int64(len(rec.Payload)+len(rec.Key)) + 64
		if decoded > s.opts.MaxBodyBytes {
			return refuse(http.StatusRequestEntityTooLarge,
				"chunk decodes past the %d-byte limit (record %d)", s.opts.MaxBodyBytes, len(c.recs))
		}
		c.recs = append(c.recs, rec)
	}
}

// commit makes one decoded chunk part of the session: dedupe against the
// stream's sequence, append to the write-ahead log, fold into the validator
// — in that order, under the session lock, so the log and the in-memory
// state cannot disagree. A duplicate (a retry whose first delivery was
// applied but whose response got lost) is acknowledged without re-ingesting.
func (s *Server) commit(sess *session, c *chunk) (IngestResponse, *refusal) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.evicted {
		// The idle sweep took this session between admit and here; folding
		// into it would write into dead state. The retry finds the durable
		// segment and resurrects.
		return IngestResponse{}, s.retryLater("session %q evicted mid-flight; retry", sess.device)
	}
	dup, err := sess.advanceStreamLocked(c.up.Stream, c.up.Chunk)
	if err != nil {
		return IngestResponse{}, refuse(http.StatusConflict, "%v", err)
	}
	resp := IngestResponse{Device: sess.device, Duplicate: dup}
	if !dup {
		if !c.logged {
			c.when = s.opts.Clock()
			if rej := s.logLocked(sess, c); rej != nil {
				// Not durable, so not applied: rewind the sequence so the
				// retry is in order again.
				if c.up.Chunk >= 0 {
					sess.nextChunk = c.up.Chunk
				}
				return IngestResponse{}, rej
			}
		}
		sess.applyChunkLocked(c.recs, int64(len(c.body)), c.when)
		resp.ChunkRecords = len(c.recs)
	}
	resp.Records, resp.Frames, resp.Chunks = sess.records, len(sess.seenFrames), sess.chunks
	return resp, nil
}

// logLocked is commit's write barrier: the chunk is durable before it is
// acked (a no-op without a DataDir). The whole step — segment creation and
// the append — runs under closeMu's read side: either it completes before
// Close flips closed (so a successor's recovery replays this ack), or the
// chunk answers 503 and the client retries against the successor. A failed
// append answers 500 without applying. The caller holds sess.mu.
func (s *Server) logLocked(sess *session, c *chunk) *refusal {
	if s.opts.DataDir == "" {
		return nil
	}
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return s.retryLater("collector shutting down; retry")
	}
	if sess.wal == nil {
		w, err := createSessionWAL(s.walConfig(), sess.device)
		if err != nil {
			return refuse(http.StatusInternalServerError, "wal: %v", err)
		}
		sess.wal = w
	}
	start := time.Now()
	err := sess.wal.append(walEntry{stream: c.up.Stream, chunk: c.up.Chunk, when: c.when, body: c.body, sum: c.sum})
	s.traces.RecordSince(c.trace, "wal", sess.device, 0, start)
	if err != nil {
		return refuse(http.StatusInternalServerError, "wal: %v", err)
	}
	return nil
}

// ack answers the request: the chunk's contribution and the session totals,
// or the refusing stage's error envelope.
func (s *Server) ack(w http.ResponseWriter, resp IngestResponse, rej *refusal) {
	if rej != nil {
		if rej.retryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(rej.retryAfter))
		}
		httpx.Error(w, rej.status, "%s", rej.msg)
		return
	}
	if resp.Duplicate {
		s.met.dupChunks.Inc()
	}
	httpx.WriteJSON(w, http.StatusOK, resp)
}

// replayEntriesLocked rebuilds one session from its logged history: the
// entries fold through decode and commit — the stages live chunks pass — so
// the session is byte-identical to the uninterrupted one, then the log
// reopens for appending (new chunks continue the highest segment, entry
// indexes resuming past the replayed history). The session cap does not
// apply: the data is already acked. Shared by startup recovery and
// idle-eviction resurrection; the caller holds s.mu, so nothing else can
// reach the session yet.
func (s *Server) replayEntriesLocked(rs recoveredSession) (*session, RecoveryStats, error) {
	sess := s.createSessionLocked(rs.device)
	var st RecoveryStats
	for _, e := range rs.entries {
		c := &chunk{
			up:   httpx.Upload{Device: sess.device, Stream: e.stream, Chunk: e.chunk},
			body: e.body, sum: e.sum, when: e.when, logged: true,
		}
		if rej := s.decode(c); rej != nil {
			// The CRC was intact but the body does not decode: corruption
			// beyond a torn tail, or a segment written by a future codec.
			// The chunks before it replayed; surface the defect and stop
			// this session's replay rather than guessing.
			st.SkippedChunks++
			if sess.lastErr == "" {
				sess.lastErr = "wal replay: " + rej.msg
			}
			break
		}
		resp, rej := s.commit(sess, c)
		if rej != nil || resp.Duplicate {
			// Entries were only appended after the sequence checks passed,
			// so an in-log dup/gap is corruption; skip it.
			st.SkippedChunks++
			continue
		}
		st.Chunks++
		st.Records += resp.ChunkRecords
	}
	w, err := createSessionWAL(s.walConfig(), rs.device)
	if err != nil {
		return nil, st, err
	}
	sess.wal = w
	return sess, st, nil
}
