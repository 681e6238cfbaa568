package ingest

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"testing"

	"mlexray/internal/httpx"
)

// TestWALSegmentRotationExactRecovery pins the rotation tentpole: with a
// small segment-size threshold the session's log rolls across several
// numbered segments and closed segments compact, yet a kill-and-restart
// over the directory still serves /fleet and /devices/{id} byte-identical
// to an uninterrupted collector that never rotated — segmentation is a
// storage layout, not a semantics change.
func TestWALSegmentRotationExactRecovery(t *testing.T) {
	const frames = 12
	ref := synthLog(frames, nil, false)
	l := synthLog(frames, nil, false)
	var uploads []chunkUpload
	for i := 0; i < frames; i++ {
		uploads = append(uploads, chunkUpload{"dev", "s1", i, chunkBody(t, l, i, i+1)})
	}

	run := func(dataDir string, segmentBytes int64, restartAt int) (fleet, dev []byte) {
		clock := &tickClock{}
		newSrv := func() (*Server, *httptest.Server) {
			srv, err := NewServer(ServerOptions{
				Ref: ref, DataDir: dataDir, Clock: clock.Now,
				SegmentBytes: segmentBytes, CompactAfter: 3,
			})
			if err != nil {
				t.Fatal(err)
			}
			return srv, httptest.NewServer(srv)
		}
		srv, ts := newSrv()
		for i, up := range uploads {
			if i == restartAt {
				ts.Close()
				srv.Close()
				srv, ts = newSrv()
				rs := srv.Recovery()
				if rs.Sessions != 1 || rs.Chunks != i || rs.SkippedChunks != 0 {
					t.Fatalf("recovery stats after %d uploads: %+v", i, rs)
				}
			}
			if resp, _ := postChunk(t, ts.URL, up); resp.StatusCode != 200 {
				t.Fatalf("upload %d: status %d", i, resp.StatusCode)
			}
		}
		fleet = getBytes(t, ts.URL+"/fleet")
		dev = getBytes(t, ts.URL+"/devices/dev")
		ts.Close()
		srv.Close()
		return fleet, dev
	}

	wantFleet, wantDev := run(t.TempDir(), 0, -1) // single segment, uninterrupted

	rotDir := t.TempDir()
	gotFleet, gotDev := run(rotDir, 256, 7) // tiny threshold: every chunk rolls

	segs, err := deviceSegments(rotDir, "dev")
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("256-byte threshold produced %d segment(s), want rotation", len(segs))
	}
	// Compaction must have merged old closed segments: with CompactAfter 3
	// the closed set never exceeds 3 at a roll boundary, so at most
	// 3 closed + 1 active files remain.
	if len(segs) > 4 {
		t.Errorf("compaction left %d segments on disk, want <= 4", len(segs))
	}
	for _, s := range segs[1:] {
		if s.seq == 0 {
			t.Errorf("duplicate segment 0 in %+v", segs)
		}
	}

	if !bytes.Equal(wantFleet, gotFleet) {
		t.Errorf("rotated+recovered /fleet differs:\nplain:   %s\nrotated: %s", wantFleet, gotFleet)
	}
	if !bytes.Equal(wantDev, gotDev) {
		t.Errorf("rotated+recovered /devices/dev differs:\nplain:   %s\nrotated: %s", wantDev, gotDev)
	}
}

// TestWALCompactionCrashWindowDedup reconstructs the worst compaction crash
// window — the merged file has been renamed into place but the originals
// were not yet removed, so every merged entry exists in two files — and
// checks recovery replays each entry exactly once, by its per-session index.
func TestWALCompactionCrashWindowDedup(t *testing.T) {
	dir := t.TempDir()
	ref := synthLog(8, nil, false)
	l := synthLog(8, nil, false)

	// Build a 3-segment log by hand: tiny threshold rolls on every append.
	w, err := createSessionWAL(walConfig{dir: dir, segmentBytes: 1}, "dev")
	if err != nil {
		t.Fatal(err)
	}
	clock := &tickClock{}
	for i := 0; i < 3; i++ {
		body := chunkBody(t, l, i*2, i*2+2)
		e := walEntry{stream: "s1", chunk: i, when: clock.Now(), body: body, sum: httpx.Checksum(body)}
		if err := w.append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := deviceSegments(dir, "dev")
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 3 {
		t.Fatalf("setup built %d segments, want 3 (one entry each)", len(segs))
	}

	// Freeze the closed originals, compact them, then restore the originals
	// next to the merged file: the post-rename pre-remove crash state.
	frozen := make(map[string][]byte)
	for _, s := range segs[:2] {
		b, err := os.ReadFile(s.path)
		if err != nil {
			t.Fatal(err)
		}
		frozen[s.path] = b
	}
	if err := compactClosedSegments(dir, "dev", 2, 2); err != nil {
		t.Fatal(err)
	}
	after, err := deviceSegments(dir, "dev")
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != 2 {
		t.Fatalf("compaction left %d segments, want 2 (merged + active)", len(after))
	}
	for path, b := range frozen {
		if _, err := os.Stat(path); err == nil && path == after[0].path {
			continue // the merged target keeps its name
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	srv, err := NewServer(ServerOptions{Ref: ref, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rs := srv.Recovery()
	if rs.Sessions != 1 || rs.Chunks != 3 || rs.SkippedChunks != 0 {
		t.Fatalf("crash-window recovery stats = %+v, want exactly 3 chunks once each", rs)
	}
	wantRecs := 0
	for _, r := range l.Records {
		if r.Frame < 6 {
			wantRecs++
		}
	}
	if got := srv.Session("dev").Records(); got != wantRecs {
		t.Errorf("recovered session holds %d records, want %d", got, wantRecs)
	}
}

// TestHealthzReportsWALSegments pins the observability satellite: /healthz
// carries per-session segment counts and on-disk byte totals, including for
// sessions whose logs rotated.
func TestHealthzReportsWALSegments(t *testing.T) {
	dir := t.TempDir()
	ref := synthLog(6, nil, false)
	l := synthLog(6, nil, false)
	srv, err := NewServer(ServerOptions{Ref: ref, DataDir: dir, SegmentBytes: 256, CompactAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for i := 0; i < 3; i++ {
		if resp, _ := postChunk(t, ts.URL, chunkUpload{"rack-1/slot 2", "s1", i, chunkBody(t, l, i*2, i*2+2)}); resp.StatusCode != 200 {
			t.Fatalf("chunk %d: status %d", i, resp.StatusCode)
		}
	}
	var health struct {
		OK  bool                       `json:"ok"`
		WAL map[string]SessionWALStats `json:"wal"`
	}
	if err := json.Unmarshal(getBytes(t, ts.URL+"/healthz"), &health); err != nil {
		t.Fatal(err)
	}
	got, ok := health.WAL["rack-1/slot 2"]
	if !ok {
		t.Fatalf("healthz wal stats missing device: %+v", health.WAL)
	}
	segs, err := deviceSegments(dir, "rack-1/slot 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("rotation did not engage: %d segments", len(segs))
	}
	wantBytes := int64(0)
	for _, s := range segs {
		st, err := os.Stat(s.path)
		if err != nil {
			t.Fatal(err)
		}
		wantBytes += st.Size()
	}
	if got.Segments != len(segs) || got.Bytes != wantBytes {
		t.Errorf("healthz wal stats = %+v, want %d segments / %d bytes", got, len(segs), wantBytes)
	}
}
