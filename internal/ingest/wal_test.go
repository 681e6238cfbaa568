package ingest

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"mlexray/internal/core"
)

// chunkBody encodes the records of frames [lo, hi) as one standalone binary
// chunk — the wire bytes a single POST /ingest carries.
func chunkBody(t testing.TB, l *core.Log, lo, hi int) []byte {
	t.Helper()
	sub := &core.Log{}
	for _, r := range l.Records {
		if r.Frame >= lo && r.Frame < hi {
			sub.Records = append(sub.Records, r)
		}
	}
	var buf bytes.Buffer
	if err := sub.Write(&buf, core.FormatBinary); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// chunkUpload is one scripted POST /ingest: device, generation headers (or
// headerless when chunk < 0) and the exact body bytes.
type chunkUpload struct {
	device string
	stream string
	chunk  int
	body   []byte
}

func postChunk(t testing.TB, base string, up chunkUpload) (*http.Response, IngestResponse) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/ingest?device="+url.QueryEscape(up.device), bytes.NewReader(up.body))
	if err != nil {
		t.Fatal(err)
	}
	if up.chunk >= 0 {
		req.Header.Set("X-MLEXray-Chunk", strconv.Itoa(up.chunk))
		req.Header.Set("X-MLEXray-Stream", up.stream)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ir IngestResponse
	_ = json.NewDecoder(resp.Body).Decode(&ir)
	return resp, ir
}

func getBytes(t testing.TB, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// tickClock is a deterministic session clock: every call advances one
// second, so two runs performing the same accepted-chunk sequence stamp
// identical times — what lets the recovery test compare status JSON
// byte-for-byte (last_seen included).
type tickClock struct {
	mu sync.Mutex
	n  int64
}

func (c *tickClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	return time.Unix(1700000000, 0).Add(time.Duration(c.n) * time.Second).UTC()
}

// TestWALKillRestartExactRecovery is the tentpole acceptance test: a
// collector killed mid-ingest and restarted over the same data directory
// serves /fleet and /devices/{id} JSON byte-identical to an uninterrupted
// run over the same uploads — recovery is exact, not approximate. The
// scripted uploads cover both fixed-chunk generations (two per device, so
// recovery restores mid-generation sequence state), a headerless curl-style
// chunk, and a post-restart retry of the last acked chunk (whose ack the
// "crash" could have eaten), which must dup-ack without re-ingesting.
func TestWALKillRestartExactRecovery(t *testing.T) {
	const frames = 12
	ref := synthLog(frames, nil, false)
	logOK := synthLog(frames, nil, false)
	logBug := synthLog(frames, nil, true)

	// Interleaved rounds: both devices progress together, so the restart
	// point lands mid-stream for both.
	var uploads []chunkUpload
	spans := []struct {
		stream string
		chunk  int
		lo, hi int
	}{
		{"gen1", 0, 0, 3},
		{"gen1", 1, 3, 6},
		{"", -1, 6, 8}, // curl-style headerless upload
		{"gen2", 0, 8, 10},
		{"gen2", 1, 10, 12},
	}
	for _, sp := range spans {
		uploads = append(uploads,
			chunkUpload{"d-ok", sp.stream, sp.chunk, chunkBody(t, logOK, sp.lo, sp.hi)},
			chunkUpload{"d-bug", sp.stream, sp.chunk, chunkBody(t, logBug, sp.lo, sp.hi)},
		)
	}

	// run executes the scripted uploads against a collector over dataDir
	// (empty = in-memory), killing and restarting it before upload index
	// restartAt (-1 = uninterrupted), then snapshots the service JSON.
	run := func(dataDir string, restartAt int) (fleet, devOK, devBug []byte) {
		clock := &tickClock{}
		newSrv := func() (*Server, *httptest.Server) {
			srv, err := NewServer(ServerOptions{Ref: ref, DataDir: dataDir, Clock: clock.Now})
			if err != nil {
				t.Fatal(err)
			}
			return srv, httptest.NewServer(srv)
		}
		srv, ts := newSrv()
		for i, up := range uploads {
			if i == restartAt {
				// Kill: drop the server without any graceful drain. Acked
				// chunks are fsynced, so closing the handles loses nothing.
				ts.Close()
				srv.Close()
				srv, ts = newSrv()
				rs := srv.Recovery()
				if rs.Sessions != 2 || rs.Chunks != i || rs.SkippedChunks != 0 {
					t.Fatalf("recovery stats after %d uploads: %+v", i, rs)
				}
				// The client whose ack the crash ate retries its last chunk:
				// the recovered sequence state must dup-ack it, not
				// re-ingest (the WAL already holds it).
				if prev := uploads[i-1]; prev.chunk >= 0 {
					resp, ir := postChunk(t, ts.URL, prev)
					if resp.StatusCode != http.StatusOK || !ir.Duplicate {
						t.Fatalf("post-restart retry: status %d duplicate=%v, want 200 dup-ack", resp.StatusCode, ir.Duplicate)
					}
				}
			}
			if resp, _ := postChunk(t, ts.URL, up); resp.StatusCode != http.StatusOK {
				t.Fatalf("upload %d (%s %s#%d): status %d", i, up.device, up.stream, up.chunk, resp.StatusCode)
			}
		}
		fleet = getBytes(t, ts.URL+"/fleet")
		devOK = getBytes(t, ts.URL+"/devices/d-ok")
		devBug = getBytes(t, ts.URL+"/devices/d-bug")
		ts.Close()
		srv.Close()
		return fleet, devOK, devBug
	}

	wantFleet, wantOK, wantBug := run(t.TempDir(), -1)
	gotFleet, gotOK, gotBug := run(t.TempDir(), 4) // mid gen1 for d-ok, pre-retry for d-bug

	if !bytes.Equal(wantFleet, gotFleet) {
		t.Errorf("recovered /fleet differs from uninterrupted run:\nuninterrupted: %s\nrecovered:     %s", wantFleet, gotFleet)
	}
	if !bytes.Equal(wantOK, gotOK) {
		t.Errorf("recovered /devices/d-ok differs:\nuninterrupted: %s\nrecovered:     %s", wantOK, gotOK)
	}
	if !bytes.Equal(wantBug, gotBug) {
		t.Errorf("recovered /devices/d-bug differs:\nuninterrupted: %s\nrecovered:     %s", wantBug, gotBug)
	}

	// The WAL is a durability layer, not a semantics layer: the durable
	// uninterrupted run must match a plain in-memory run byte for byte.
	memFleet, memOK, _ := run("", -1)
	if !bytes.Equal(wantFleet, memFleet) {
		t.Errorf("durable run /fleet differs from in-memory run:\nin-memory: %s\ndurable:   %s", memFleet, wantFleet)
	}
	if !bytes.Equal(wantOK, memOK) {
		t.Errorf("durable run /devices/d-ok differs from in-memory run:\nin-memory: %s\ndurable:   %s", memOK, wantOK)
	}
}

// TestWALTornTailTruncatedAndResumes pins the crash-mid-append story: a
// torn trailing entry (the write in flight at the crash) is detected by
// length/CRC, truncated away, and the session resumes exactly where the
// intact log ends — the never-acked chunk's retry is accepted in sequence,
// and a further restart recovers everything.
func TestWALTornTailTruncatedAndResumes(t *testing.T) {
	dir := t.TempDir()
	ref := synthLog(6, nil, false)
	l := synthLog(6, nil, false)
	bodies := [][]byte{chunkBody(t, l, 0, 2), chunkBody(t, l, 2, 4), chunkBody(t, l, 4, 6)}
	recordsIn := func(body []byte) int {
		lg, err := core.ReadLog(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return len(lg.Records)
	}

	srv1, err := NewServer(ServerOptions{Ref: ref, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1)
	for i := 0; i < 2; i++ {
		if resp, _ := postChunk(t, ts1.URL, chunkUpload{"dev", "s", i, bodies[i]}); resp.StatusCode != http.StatusOK {
			t.Fatalf("chunk %d: status %d", i, resp.StatusCode)
		}
	}
	ts1.Close()
	srv1.Close()

	// Tear the tail: a partial third entry, as if the crash hit mid-write.
	f, err := os.OpenFile(walPath(dir, "dev"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := []byte{0x05, 'p', 'a'} // claims a 5-byte stream token, then ends
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	srv2, err := NewServer(ServerOptions{Ref: ref, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	rs := srv2.Recovery()
	if rs.Sessions != 1 || rs.Chunks != 2 || rs.TruncatedBytes != int64(len(torn)) || rs.SkippedChunks != 0 {
		t.Fatalf("recovery stats = %+v, want 1 session, 2 chunks, %d truncated bytes", rs, len(torn))
	}
	wantRecs := recordsIn(bodies[0]) + recordsIn(bodies[1])
	if got := srv2.Session("dev").Records(); got != wantRecs {
		t.Errorf("recovered session holds %d records, want %d", got, wantRecs)
	}

	// The torn chunk was never acked; its retry arrives in sequence and the
	// (truncated) segment accepts the append cleanly.
	ts2 := httptest.NewServer(srv2)
	if resp, ir := postChunk(t, ts2.URL, chunkUpload{"dev", "s", 2, bodies[2]}); resp.StatusCode != http.StatusOK || ir.Duplicate {
		t.Fatalf("retry of torn chunk: status %d duplicate=%v", resp.StatusCode, ir.Duplicate)
	}
	ts2.Close()
	srv2.Close()

	srv3, err := NewServer(ServerOptions{Ref: ref, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv3.Close()
	if got, want := srv3.Session("dev").Records(), wantRecs+recordsIn(bodies[2]); got != want {
		t.Errorf("after second restart the session holds %d records, want %d", got, want)
	}
	if rs := srv3.Recovery(); rs.Chunks != 3 || rs.TruncatedBytes != 0 {
		t.Errorf("second recovery stats = %+v, want 3 chunks and no truncation", rs)
	}
}

// TestWALRecoversArbitraryDeviceNames pins the segment-file naming: device
// IDs with path separators and spaces round-trip through recovery.
func TestWALRecoversArbitraryDeviceNames(t *testing.T) {
	dir := t.TempDir()
	ref := synthLog(2, nil, false)
	body := chunkBody(t, synthLog(2, nil, false), 0, 2)
	device := "rack-1/slot 2?x=../y"

	srv1, err := NewServer(ServerOptions{Ref: ref, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv1)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/ingest", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-MLEXray-Device", device)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload status %d", resp.StatusCode)
	}
	ts.Close()
	srv1.Close()

	srv2, err := NewServer(ServerOptions{Ref: ref, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if sv := srv2.Session(device); sv == nil || sv.Records() == 0 {
		t.Errorf("device %q not recovered (session %v)", device, sv)
	}
}

// TestIngestRateLimit429 pins the per-device admission control: past the
// chunk-rate budget the collector answers 429 with a Retry-After hint, and
// the budget refills with the clock.
func TestIngestRateLimit429(t *testing.T) {
	ref := synthLog(2, nil, false)
	var mu sync.Mutex
	now := time.Unix(1700000000, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	srv, err := NewServer(ServerOptions{Ref: ref, MaxChunksPerSec: 1, ChunkBurst: 1, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	body := chunkBody(t, synthLog(2, nil, false), 0, 2)

	if resp, _ := postChunk(t, ts.URL, chunkUpload{"ratey", "", -1, body}); resp.StatusCode != http.StatusOK {
		t.Fatalf("first chunk: status %d", resp.StatusCode)
	}
	resp, err := http.Post(ts.URL+"/ingest?device=ratey", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-rate chunk: status %d, want 429", resp.StatusCode)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Errorf("429 Retry-After = %q, want an integer >= 1", resp.Header.Get("Retry-After"))
	}
	bodyRecs := func() int {
		lg, err := core.ReadLog(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return len(lg.Records)
	}()
	if got := srv.Session("ratey").Records(); got != bodyRecs {
		t.Errorf("throttled chunk ingested anyway (%d records, want %d)", got, bodyRecs)
	}

	mu.Lock()
	now = now.Add(1100 * time.Millisecond)
	mu.Unlock()
	if resp, _ := postChunk(t, ts.URL, chunkUpload{"ratey", "", -1, body}); resp.StatusCode != http.StatusOK {
		t.Errorf("post-refill chunk: status %d, want 200", resp.StatusCode)
	}
}

// TestIngestSessionCap503 pins the fleet-size admission control: a chunk
// from a device past MaxSessions gets 503 + Retry-After, while known
// devices keep uploading.
func TestIngestSessionCap503(t *testing.T) {
	ref := synthLog(2, nil, false)
	srv, err := NewServer(ServerOptions{Ref: ref, MaxSessions: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	body := chunkBody(t, synthLog(2, nil, false), 0, 2)

	for _, dev := range []string{"cap-a", "cap-b"} {
		if resp, _ := postChunk(t, ts.URL, chunkUpload{dev, "", -1, body}); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", dev, resp.StatusCode)
		}
	}
	resp, err := http.Post(ts.URL+"/ingest?device=cap-c", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-cap device: status %d, want 503", resp.StatusCode)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Errorf("503 Retry-After = %q, want an integer >= 1", resp.Header.Get("Retry-After"))
	}
	if srv.Session("cap-c") != nil {
		t.Error("rejected device got a session anyway")
	}
	// Known devices are unaffected by the cap.
	if resp, _ := postChunk(t, ts.URL, chunkUpload{"cap-a", "", -1, body}); resp.StatusCode != http.StatusOK {
		t.Errorf("known device after cap: status %d, want 200", resp.StatusCode)
	}
}

// TestRemoteSinkRetriesThrottled pins the client half of admission control:
// 429 responses are transient — the sink retries (honoring Retry-After) and
// the stream completes instead of going sticky-failed.
func TestRemoteSinkRetriesThrottled(t *testing.T) {
	ref := synthLog(4, nil, false)
	srv, err := NewServer(ServerOptions{Ref: ref})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	throttles := 2
	gate := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		throttle := throttles > 0
		if throttle {
			throttles--
		}
		mu.Unlock()
		if throttle {
			w.Header().Set("Retry-After", "0")
			http.Error(w, "over rate", http.StatusTooManyRequests)
			return
		}
		srv.ServeHTTP(w, r)
	}))
	defer gate.Close()

	sink, err := NewRemoteSink(SinkOptions{
		URL: gate.URL, Device: "throttled", Format: core.FormatBinary, RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	l := synthLog(4, nil, false)
	uploadLog(t, sink, l)
	if sink.Retries() < 2 {
		t.Errorf("%d retries recorded, want >= 2 (one per 429)", sink.Retries())
	}
	if sv := srv.Session("throttled"); sv == nil || sv.Records() != len(l.Records) {
		t.Errorf("collector holds %v, want %d records", sv, len(l.Records))
	}
}

// TestParseRetryAfter pins the header parsing: delay-seconds honored, capped
// at maxRetryAfter, junk ignored.
func TestParseRetryAfter(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"", 0},
		{"7", 7 * time.Second},
		{"0", 0},
		{"-3", 0},
		{"junk", 0},
		{"86400", maxRetryAfter},
	}
	for _, c := range cases {
		if got := parseRetryAfter(c.in); got != c.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestWALDurableBenchSanity keeps the durable path honest at bench scale: a
// full upload through a RemoteSink against a DataDir-backed collector
// recovers to the identical fleet report.
func TestWALDurableRemoteSinkRecovery(t *testing.T) {
	dir := t.TempDir()
	const frames = 8
	ref := synthLog(frames, nil, false)
	l := synthLog(frames, nil, true)

	srv1, err := NewServer(ServerOptions{Ref: ref, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv1)
	sink, err := NewRemoteSink(SinkOptions{
		URL: ts.URL, Device: "sink-dev", Format: core.FormatBinary, Gzip: true, ChunkBytes: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	uploadLog(t, sink, l)
	if sink.Chunks() < 2 {
		t.Fatalf("want a chunked upload, got %d chunks", sink.Chunks())
	}
	want, err := srv1.FleetReport()
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)
	ts.Close()
	srv1.Close()

	srv2, err := NewServer(ServerOptions{Ref: ref, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	got, err := srv2.FleetReport()
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(got)
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Errorf("recovered fleet report differs:\nlive:      %s\nrecovered: %s", wantJSON, gotJSON)
	}
	if rs, st := srv2.Recovery(), sink.Stats(); rs.Chunks != st.Chunks || rs.Records != st.Records {
		t.Errorf("recovery stats %+v, want %d chunks / %d records", rs, st.Chunks, st.Records)
	}
}
