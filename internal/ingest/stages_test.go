package ingest

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mlexray/internal/core"
	"mlexray/internal/httpx"
	"mlexray/internal/obs"
)

// TestAdmitTable walks the admission stage through every outcome it can
// produce — both passes (before the body is read, and the creating pass
// after decode) — plus the commit-side refusal for a session the idle sweep
// took in between. One table, because one function now makes every one of
// these decisions.
func TestAdmitTable(t *testing.T) {
	body := chunkBody(t, synthLog(2, nil, false), 0, 2)
	// newServer boots a durable collector with room for one session and a
	// one-chunk-per-second budget per device.
	newServer := func(t *testing.T) (*Server, *manualClock) {
		clock := newManualClock()
		srv, err := NewServer(ServerOptions{
			Ref: synthLog(2, nil, false), DataDir: t.TempDir(), Clock: clock.Now,
			MaxSessions: 1, MaxChunksPerSec: 1, ChunkBurst: 1,
			IdleTimeout: 10 * time.Second, SessionRetryAfterSecs: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		return srv, clock
	}
	upload := func(t *testing.T, srv *Server, device string) {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, "/ingest?device="+device, bytes.NewReader(body))
		if code, msg := httpx.Do(srv, req); code != http.StatusOK {
			t.Fatalf("seeding %s: %d %s", device, code, msg)
		}
	}

	for _, tc := range []struct {
		name string
		// setup returns the device to admit.
		setup func(t *testing.T, srv *Server, clock *manualClock) string
		// wantStatus is the refusal expected (0: admitted), retryAfter its
		// Retry-After; an admitted device ends with a session holding
		// wantRecords records.
		wantStatus  int
		retryAfter  int
		wantRecords int
	}{
		{
			name: "known device",
			setup: func(t *testing.T, srv *Server, clock *manualClock) string {
				upload(t, srv, "resident")
				clock.Advance(2 * time.Second) // refill its token
				return "resident"
			},
			wantRecords: 5 * 2,
		},
		{
			name:  "new device under the cap",
			setup: func(*testing.T, *Server, *manualClock) string { return "fresh" },
		},
		{
			name: "new device at the cap",
			setup: func(t *testing.T, srv *Server, _ *manualClock) string {
				upload(t, srv, "resident")
				return "latecomer"
			},
			wantStatus: http.StatusServiceUnavailable, retryAfter: 7,
		},
		{
			name: "at the cap with segments on disk",
			setup: func(t *testing.T, srv *Server, clock *manualClock) string {
				upload(t, srv, "returning")
				clock.Advance(11 * time.Second)
				if n := srv.EvictIdle(); n != 1 {
					t.Fatalf("EvictIdle = %d, want 1", n)
				}
				upload(t, srv, "resident")
				return "returning"
			},
			wantRecords: 5 * 2,
		},
		{
			name: "known device over its rate",
			setup: func(t *testing.T, srv *Server, _ *manualClock) string {
				upload(t, srv, "resident") // spends the one token
				return "resident"
			},
			wantStatus: http.StatusTooManyRequests, retryAfter: 1,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, clock := newServer(t)
			device := tc.setup(t, srv, clock)
			// The handler's two passes: before the body is read, and — for
			// a new device with room — the creating pass after decode.
			sess, rej := srv.admit(device, false)
			if rej == nil && sess == nil {
				sess, rej = srv.admit(device, true)
			}
			if tc.wantStatus != 0 {
				if rej == nil || rej.status != tc.wantStatus || rej.retryAfter != tc.retryAfter {
					t.Fatalf("admit = %+v, want status %d with Retry-After %d", rej, tc.wantStatus, tc.retryAfter)
				}
				return
			}
			if rej != nil || sess == nil {
				t.Fatalf("admit = %v, %+v; want a session", sess, rej)
			}
			if sess.records != tc.wantRecords {
				t.Errorf("admitted session holds %d records, want %d", sess.records, tc.wantRecords)
			}
		})
	}

	// The lost race: the pre-read pass saw room, another new device took the
	// slot during read/decode, so the creating pass answers the same 503.
	t.Run("cap lost between the passes", func(t *testing.T) {
		srv, _ := newServer(t)
		if sess, rej := srv.admit("slow", false); sess != nil || rej != nil {
			t.Fatalf("pre-read pass = %v, %+v; want a new device with room", sess, rej)
		}
		upload(t, srv, "resident")
		_, rej := srv.admit("slow", true)
		if rej == nil || rej.status != http.StatusServiceUnavailable || rej.retryAfter != 7 {
			t.Errorf("creating pass = %+v, want 503 with Retry-After 7", rej)
		}
		if srv.Session("slow") != nil {
			t.Error("refused device got a session anyway")
		}
	})

	// Evicted mid-flight: admitted, then the idle sweep takes the session
	// while the body is being read; commit must refuse rather than fold
	// into dead state, and nothing may be logged or applied.
	t.Run("evicted between admit and commit", func(t *testing.T) {
		srv, clock := newServer(t)
		upload(t, srv, "resident")
		clock.Advance(2 * time.Second)
		sess, rej := srv.admit("resident", false)
		if sess == nil || rej != nil {
			t.Fatalf("admit = %v, %+v", sess, rej)
		}
		clock.Advance(11 * time.Second)
		if n := srv.EvictIdle(); n != 1 {
			t.Fatalf("EvictIdle = %d, want 1", n)
		}
		c := &chunk{up: httpx.Upload{Device: "resident", Chunk: -1}, body: body, sum: httpx.Checksum(body)}
		if rej := srv.decode(c); rej != nil {
			t.Fatal(rej.msg)
		}
		_, rej = srv.commit(sess, c)
		if rej == nil || rej.status != http.StatusServiceUnavailable || rej.retryAfter != 7 {
			t.Fatalf("commit into an evicted session = %+v, want 503 with Retry-After 7", rej)
		}
		if sess.chunks != 1 {
			t.Errorf("evicted session applied the chunk anyway (%d chunks)", sess.chunks)
		}
	})
}

// TestIngestChecksum pins the body-checksum leg of the upload protocol: a
// mismatch is the documented 400 and leaves no trace — nothing appended,
// applied or counted; an absent header is accepted unverified (curl); and a
// retry announcing the same sum as the applied delivery is a duplicate.
func TestIngestChecksum(t *testing.T) {
	dir := t.TempDir()
	srv, err := NewServer(ServerOptions{Ref: synthLog(4, nil, false), DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	l := synthLog(4, nil, false)
	body := chunkBody(t, l, 0, 2)
	post := func(up httpx.Upload, body []byte) (int, string) {
		req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body))
		up.SetHeaders(req.Header)
		code, msg := httpx.Do(srv, req)
		return code, string(msg)
	}
	chunksCounted := func() float64 {
		_, text := httpx.Get(srv, "/metrics")
		parsed, err := obs.ParseText(text)
		if err != nil {
			t.Fatal(err)
		}
		return obs.SumSeries(parsed, "mlexray_ingest_chunks_total")
	}

	// One flipped payload byte: the chunk still decodes, only the sum knows.
	damaged := bytes.Clone(body)
	damaged[len(damaged)-3] ^= 0xff
	if _, err := core.ReadLog(bytes.NewReader(damaged)); err != nil {
		t.Fatalf("the damaged chunk should still decode: %v", err)
	}
	up := httpx.Upload{Device: "sum-dev", Stream: "gen", Chunk: 0, Sum: httpx.Checksum(body), HasSum: true}
	code, msg := post(up, damaged)
	if code != http.StatusBadRequest {
		t.Fatalf("damaged delivery: %d %s, want 400", code, msg)
	}
	if srv.Session("sum-dev") != nil {
		t.Error("a refused first chunk created a session")
	}
	if segs, _ := deviceSegments(dir, "sum-dev"); len(segs) != 0 {
		t.Errorf("a refused chunk reached the WAL: %v", segs)
	}
	if n := chunksCounted(); n != 0 {
		t.Errorf("a refused chunk was counted: mlexray_ingest_chunks_total = %v", n)
	}

	// The clean retry applies; its own retry is a duplicate.
	if code, msg := post(up, body); code != http.StatusOK {
		t.Fatalf("clean delivery: %d %s", code, msg)
	}
	code, msg = post(up, body)
	if code != http.StatusOK || !bytes.Contains([]byte(msg), []byte(`"duplicate": true`)) {
		t.Errorf("matching-sum retry: %d %s, want 200 duplicate", code, msg)
	}
	// A damaged retry of an applied chunk is refused too, not dup-acked.
	if code, _ := post(up, damaged); code != http.StatusBadRequest {
		t.Errorf("damaged retry of an applied chunk: %d, want 400", code)
	}
	if n := chunksCounted(); n != 1 {
		t.Errorf("mlexray_ingest_chunks_total = %v, want 1", n)
	}

	// No checksum header: accepted unverified, as raw uploads always were.
	if code, msg := post(httpx.Upload{Device: "curl-dev", Chunk: -1}, damaged); code != http.StatusOK {
		t.Errorf("headerless-sum upload: %d %s, want 200", code, msg)
	}

	// RemoteSink always announces the sum of the bytes it sends, gzip or not.
	for _, gz := range []bool{false, true} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			up, err := httpx.ParseUpload(r)
			sent, _ := io.ReadAll(r.Body)
			if err != nil || !up.HasSum || up.Sum != httpx.Checksum(sent) {
				t.Errorf("gzip=%v: sink upload %+v (%v) does not announce its body's sum", gz, up, err)
			}
		}))
		sink, err := NewRemoteSink(SinkOptions{URL: ts.URL, Device: "sink-dev", Format: core.FormatBinary, Gzip: gz})
		if err != nil {
			t.Fatal(err)
		}
		uploadLog(t, sink, l)
		ts.Close()
	}

	// The logged sum is the wire sum: a restart replays the acked chunk.
	srv.Close()
	again, err := NewServer(ServerOptions{Ref: synthLog(4, nil, false), DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if rs := again.Recovery(); rs.Chunks != 2 || rs.SkippedChunks != 0 || rs.TruncatedBytes != 0 {
		t.Errorf("recovery = %+v, want both acked chunks replayed intact", rs)
	}
}
