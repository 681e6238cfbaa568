// Package httpx is the collector tier's wire-protocol kit: the one place
// that knows the upload headers, the JSON reply envelope, how a handler's
// status is observed, how a handler is driven without a socket, and how a
// daemon listens, serves and drains. ingest, shard, storm and the daemons
// all speak the protocol through it, so the contracts that span processes —
// above all the reply envelope the merged-/fleet byte pin depends on — are
// held by one definition instead of by copies kept in step.
package httpx

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"strconv"
)

// The upload headers of POST /ingest.
const (
	// HeaderDevice names the uploading device — the session key. The
	// ?device= query parameter is the fallback for header-less clients.
	HeaderDevice = "X-MLEXray-Device"
	// HeaderChunk is the chunk's sequence number within its stream: what
	// makes a retry idempotent. Absent on raw uploads (curl).
	HeaderChunk = "X-MLEXray-Chunk"
	// HeaderStream is the upload-generation token scoping the chunk
	// numbering: a restarted client appends instead of colliding with its
	// previous run's numbers.
	HeaderStream = "X-MLEXray-Stream"
	// HeaderSum is the CRC-32 (IEEE) of the body's wire bytes, eight hex
	// digits. With it a delivery and its retry are byte-equal or rejected,
	// so an acked chunk is the same bytes whichever delivery was applied.
	// Optional: raw uploads send none and are accepted unverified.
	HeaderSum = "X-MLEXray-Sum"
)

// Upload is one POST /ingest request's protocol metadata.
type Upload struct {
	Device string
	Stream string
	// Chunk is the sequence number, or -1 for a headerless upload (applied
	// unconditionally, never touching the stream's numbering).
	Chunk int
	// Sum is the announced body checksum, meaningful when HasSum.
	Sum    uint32
	HasSum bool
}

// ParseUpload reads the upload headers. The error text is the body of the
// 400 the caller answers with.
func ParseUpload(r *http.Request) (Upload, error) {
	u := Upload{Device: r.Header.Get(HeaderDevice), Stream: r.Header.Get(HeaderStream), Chunk: -1}
	if u.Device == "" {
		u.Device = r.URL.Query().Get("device")
	}
	if u.Device == "" {
		return u, fmt.Errorf("missing device ID (%s header or ?device=)", HeaderDevice)
	}
	if h := r.Header.Get(HeaderChunk); h != "" {
		idx, err := strconv.Atoi(h)
		if err != nil || idx < 0 {
			return u, fmt.Errorf("bad %s %q", HeaderChunk, h)
		}
		u.Chunk = idx
	}
	if h := r.Header.Get(HeaderSum); h != "" {
		sum, err := strconv.ParseUint(h, 16, 32)
		if err != nil {
			return u, fmt.Errorf("bad %s %q", HeaderSum, h)
		}
		u.Sum, u.HasSum = uint32(sum), true
	}
	return u, nil
}

// SetHeaders writes the upload's metadata onto an outgoing request —
// ParseUpload's inverse. A headerless upload (Chunk < 0) stays headerless.
func (u Upload) SetHeaders(h http.Header) {
	h.Set(HeaderDevice, u.Device)
	if u.Chunk >= 0 {
		h.Set(HeaderChunk, strconv.Itoa(u.Chunk))
		h.Set(HeaderStream, u.Stream)
	}
	if u.HasSum {
		h.Set(HeaderSum, fmt.Sprintf("%08x", u.Sum))
	}
}

// Checksum is the body checksum HeaderSum carries — the same sum the
// write-ahead log stores per entry, so a durable collector computes it once.
func Checksum(body []byte) uint32 { return crc32.ChecksumIEEE(body) }

// WriteJSON writes the collector tier's reply envelope: indented JSON with
// a trailing newline. The gateway's merged /fleet is pinned byte-identical
// to a single collector's, and this encoding is part of that contract.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status is sent; a failed body write has nowhere to go
}

// Error writes the error envelope: {"error": "<message>"}.
func Error(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// StatusWriter records the status a handler answered with. Unwrap keeps
// http.ResponseController working through it — per-request read/write
// deadlines set by the wrapped handler must reach the real connection.
type StatusWriter struct {
	http.ResponseWriter
	status int
}

// CaptureStatus wraps w.
func CaptureStatus(w http.ResponseWriter) *StatusWriter { return &StatusWriter{ResponseWriter: w} }

func (s *StatusWriter) WriteHeader(code int) {
	if s.status == 0 {
		s.status = code
	}
	s.ResponseWriter.WriteHeader(code)
}

func (s *StatusWriter) Unwrap() http.ResponseWriter { return s.ResponseWriter }

// Status is the status sent; a handler that never called WriteHeader
// answered 200, as net/http does for it.
func (s *StatusWriter) Status() int {
	if s.status == 0 {
		return http.StatusOK
	}
	return s.status
}

// Do drives one request through a handler in process — no socket, no
// goroutine — and returns the status and body it answered.
func Do(h http.Handler, r *http.Request) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	return rec.Code, rec.Body.Bytes()
}

// Get is Do for a GET of path.
func Get(h http.Handler, path string) (int, []byte) {
	return Do(h, httptest.NewRequest(http.MethodGet, path, nil))
}
