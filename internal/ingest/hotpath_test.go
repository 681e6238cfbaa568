package ingest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"mlexray/internal/core"
	"mlexray/internal/datasets"
	"mlexray/internal/httpx"
	"mlexray/internal/ops"
	"mlexray/internal/pipeline"
	"mlexray/internal/replay"
	"mlexray/internal/runner"
	"mlexray/internal/tensor"
	"mlexray/internal/zoo"
)

// These tests pin the collector hot path's memory contracts: a chunk is
// read into a pooled buffer sized by an honest Content-Length, decoded in
// place, and nothing of it outlives the request.

// allocatedBy runs f and returns the heap bytes it allocated.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// wideLog is synthLog with layers wide enough that a few frames make a
// chunk of the sink's 1 MiB size: per frame, layers float tensors of width
// elements, their latencies and one model output.
func wideLog(frames, layers, width int) *core.Log {
	l := &core.Log{}
	for f := 0; f < frames; f++ {
		for li := 0; li < layers; li++ {
			tt := tensor.New(tensor.F32, width)
			for i := range tt.F {
				tt.F[i] = float32((f+li+i)%251) / 8
			}
			name := fmt.Sprintf("conv%d", li)
			r := core.Record{Seq: len(l.Records), Frame: f, Key: core.LayerOutputKey(name),
				LayerIndex: li, LayerName: name, OpType: "Conv2D"}
			r.EncodeTensor(tt, true)
			l.Records = append(l.Records, r, core.Record{
				Seq: len(l.Records) + 1, Frame: f, Key: core.LayerLatencyKey(name), Kind: core.KindMetric,
				LayerIndex: li, LayerName: name, OpType: "Conv2D", Value: 1000, Unit: "ns",
			})
		}
		out := tensor.New(tensor.F32, 4)
		out.F[f%4] = 1
		r := core.Record{Seq: len(l.Records), Frame: f, Key: core.KeyModelOutput}
		r.EncodeTensor(out, true)
		l.Records = append(l.Records, r)
	}
	return l
}

// TestIngestAllocatesLessThanWire: one in-process POST /ingest of a 1 MiB
// binary chunk — read, decode, drift against the reference, ack — allocates
// fewer bytes than the chunk's wire size. Before the pooled read and the
// in-place decode it allocated about nine times the wire size.
func TestIngestAllocatesLessThanWire(t *testing.T) {
	ref := wideLog(8, 32, 1024)
	body := chunkBody(t, ref, 0, 8)
	if len(body) < 1<<20 {
		t.Fatalf("test chunk is %d bytes, want at least 1 MiB", len(body))
	}
	srv, err := NewServer(ServerOptions{Ref: ref})
	if err != nil {
		t.Fatal(err)
	}
	post := func() {
		req := httptest.NewRequest(http.MethodPost, "/ingest?device=alloc", bytes.NewReader(body))
		if code, msg := httpx.Do(srv, req); code != http.StatusOK {
			t.Fatalf("ingest: %d %s", code, msg)
		}
	}
	post() // first contact: session, reference index, accumulators, the pool's buffer
	// The least of a few runs: a garbage collection (or the race detector,
	// which makes sync.Pool drop a quarter of what it is given) can empty
	// the pool under any one request; code that allocates the body or copies
	// payloads per request does so in every one.
	least := uint64(math.MaxUint64)
	for i := 0; i < 8; i++ {
		least = min(least, allocatedBy(post))
	}
	t.Logf("%d bytes allocated per %d-byte chunk", least, len(body))
	if least >= uint64(len(body)) {
		t.Errorf("one /ingest allocates %d bytes for a %d-byte chunk; want fewer than the wire size", least, len(body))
	}
}

// TestIngestPresizeIsBounded: the announced Content-Length reserves memory
// only up to maxPooledBody. A request claiming 1 GiB and sending nothing is
// read into a buffer of that fixed pre-size — which the pool keeps, so the
// next request reuses it — not into a gibibyte.
func TestIngestPresizeIsBounded(t *testing.T) {
	srv, err := NewServer(ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lie := func() *http.Request {
		req := httptest.NewRequest(http.MethodPost, "/ingest?device=liar", http.NoBody)
		req.ContentLength = 1 << 30
		return req
	}
	if code, msg := httpx.Do(srv, lie()); code != http.StatusOK { // an empty body is an empty log
		t.Errorf("empty body under a 1 GiB Content-Length: %d %s, want 200", code, msg)
	}
	c := &chunk{}
	defer c.release()
	if rej := srv.read(httptest.NewRecorder(), lie(), c); rej != nil {
		t.Fatalf("read: %d %s", rej.status, rej.msg)
	}
	if got := c.mem.body.Cap(); got < maxPooledBody/2 || got > maxPooledBody || !c.mem.poolable() {
		t.Errorf("read reserved %d bytes for a 1 GiB Content-Length; want the %d-byte pre-size, which the pool keeps", got, maxPooledBody)
	}
}

// rawPost writes one HTTP/1.1 POST /ingest by hand — so the headers can lie
// about the body — half-closes the connection and returns the first
// response.
func rawPost(t *testing.T, ts *httptest.Server, device, headers string, body []byte) (int, string) {
	t.Helper()
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	fmt.Fprintf(conn, "POST /ingest?device=%s HTTP/1.1\r\nHost: collector\r\n%s\r\n", device, headers)
	conn.Write(body)
	conn.(*net.TCPConn).CloseWrite()
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("%s: no response: %v", device, err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(bytes.TrimSpace(msg))
}

// TestIngestHeaderHonesty: sizing the read from Content-Length must not
// change what a dishonest or absent header is answered with — the documented
// 200/400/413 of the read stage, unchanged.
func TestIngestHeaderHonesty(t *testing.T) {
	ref := synthLog(4, nil, false)
	body := chunkBody(t, ref, 0, 4)
	srv, err := NewServer(ServerOptions{Ref: ref, MaxBodyBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	chunked := fmt.Appendf(nil, "%x\r\n%s\r\n0\r\n\r\n", len(body), body)
	for _, tc := range []struct {
		name, headers string
		body          []byte
		status        int
		msg           string
	}{
		{"honest", fmt.Sprintf("Content-Length: %d\r\n", len(body)), body, http.StatusOK, `"chunk_records": 20`},
		{"no content-length (chunked)", "Transfer-Encoding: chunked\r\n", chunked, http.StatusOK, `"chunk_records": 20`},
		{"short body", fmt.Sprintf("Content-Length: %d\r\n", len(body)+100), body,
			http.StatusBadRequest, "read chunk: unexpected EOF"},
		{"empty body under 1 GiB content-length", "Content-Length: 1073741824\r\n", nil,
			http.StatusBadRequest, "read chunk: unexpected EOF"},
		{"empty body under a 2^63-1 content-length", "Content-Length: 9223372036854775807\r\n", nil,
			http.StatusBadRequest, "read chunk: unexpected EOF"},
		{"body longer than announced", fmt.Sprintf("Content-Length: %d\r\n", len(body)-7), body,
			http.StatusBadRequest, "decode record 19: core: binary log record body: unexpected EOF"},
		{"announced past the cap", "Content-Length: 2097152\r\n", bytes.Repeat([]byte{'x'}, 2<<20),
			http.StatusRequestEntityTooLarge, "chunk exceeds the 1048576-byte limit"},
	} {
		device := strings.NewReplacer(" ", "-", "(", "", ")", "", "^", "").Replace(tc.name)
		status, msg := rawPost(t, ts, device, tc.headers, tc.body)
		if status != tc.status || !strings.Contains(msg, tc.msg) {
			t.Errorf("%s: %d %s; want %d containing %q", tc.name, status, msg, tc.status, tc.msg)
		}
	}
	// Only the two honest uploads became sessions.
	if got := srv.Devices(); len(got) != 2 {
		t.Errorf("sessions %v, want the honest and the chunked upload only", got)
	}
}

// TestIngestPooledBufferSafety is the aliasing pin. Device a's first chunk
// carries the leading frames whose boundary tensors the validator retains as
// assertion evidence; device b's different chunk then reuses the pooled
// buffer those tensors were decoded out of, and so on alternately. If
// anything still pointed into the buffer, a's evidence would now be b's
// bytes: the device reports and /fleet must still equal core.Validate and
// core.FleetValidate offline. Run under -race in CI.
func TestIngestPooledBufferSafety(t *testing.T) {
	entry, err := zoo.Get("mobilenetv2-mini")
	if err != nil {
		t.Fatal(err)
	}
	const frames = 12
	images := replay.Images(datasets.SynthImageNet(77, frames))
	ropts := runner.Options{Workers: 1, MonitorOptions: []core.MonitorOption{
		core.WithCaptureMode(core.CaptureFull), core.WithPerLayer(true)}}
	capture := func(o pipeline.Options) *core.Log {
		l, err := replay.Classification(entry.Mobile, o, images, ropts, nil)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	ref := capture(pipeline.Options{Resolver: ops.NewReference(ops.Fixed())})
	// Two different preprocessing bugs: each device's findings rest on its
	// own retained preprocessing tensors.
	logs := map[string]*core.Log{
		"a": capture(pipeline.Options{Resolver: ops.NewOptimized(ops.Fixed()), Bug: pipeline.BugChannel}),
		"b": capture(pipeline.Options{Resolver: ops.NewOptimized(ops.Fixed()), Bug: pipeline.BugNormalization}),
	}
	srv, err := NewServer(ServerOptions{Ref: ref})
	if err != nil {
		t.Fatal(err)
	}
	const perChunk = 3
	for lo := 0; lo <= frames; lo += perChunk { // replay logs tag frames from 1
		for _, device := range []string{"a", "b"} {
			req := httptest.NewRequest(http.MethodPost, "/ingest?device="+device,
				bytes.NewReader(chunkBody(t, logs[device], lo, lo+perChunk)))
			if code, msg := httpx.Do(srv, req); code != http.StatusOK {
				t.Fatalf("device %s frames %d..: %d %s", device, lo, code, msg)
			}
		}
	}

	opts := core.DefaultValidateOptions()
	for device, l := range logs {
		want, err := core.Validate(l, ref, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Findings) == 0 {
			t.Fatalf("device %s: offline validation has no findings; the test would not notice lost evidence", device)
		}
		code, raw := httpx.Get(srv, "/devices/"+device)
		var st DeviceStatus
		if err := json.Unmarshal(raw, &st); code != http.StatusOK || err != nil || st.Report == nil {
			t.Fatalf("device %s report: %d %v %s", device, code, err, raw)
		}
		wantJSON, _ := json.Marshal(want)
		gotJSON, _ := json.Marshal(st.Report)
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("device %s: streamed report differs from offline Validate:\nserver findings:  %+v\noffline findings: %+v", device, st.Report.Findings, want.Findings)
		}
	}
	wantFleet, err := core.FleetValidate([]core.DeviceShardLog{{Device: "a", Log: logs["a"]}, {Device: "b", Log: logs["b"]}}, ref, opts)
	if err != nil {
		t.Fatal(err)
	}
	code, raw := httpx.Get(srv, "/fleet")
	var fleet FleetResponse
	if err := json.Unmarshal(raw, &fleet); code != http.StatusOK || err != nil {
		t.Fatalf("/fleet: %d %v %s", code, err, raw)
	}
	wantJSON, _ := json.Marshal(wantFleet)
	gotJSON, _ := json.Marshal(fleet.Report)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("/fleet differs from offline FleetValidate:\nserver:  %.400s\noffline: %.400s", gotJSON, wantJSON)
	}
}

// TestRemoteSinkBuildsChunkStateOnce: once a sink has seen its first frame
// the chunk buffer is as large as a chunk gets (the threshold plus a frame)
// and never regrows, and every chunk is written by the one encoder the sink
// was built with — each still a standalone log the collector decodes.
func TestRemoteSinkBuildsChunkStateOnce(t *testing.T) {
	l := wideLog(40, 4, 512) // ~8 KiB a frame
	srv, ts := newTestServer(t, l)
	sink, err := NewRemoteSink(SinkOptions{URL: ts.URL, Device: "once", Format: core.FormatBinary, ChunkBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	enc, bufCap := sink.enc, 0
	for start := 0; start < len(l.Records); {
		end := start
		for end < len(l.Records) && l.Records[end].Frame == l.Records[start].Frame {
			end++
		}
		if err := sink.WriteFrame(l.Records[start].Frame, l.Records[start:end]); err != nil {
			t.Fatal(err)
		}
		if start == 0 {
			bufCap = sink.chunk.Cap()
		}
		if sink.chunk.Cap() != bufCap || sink.enc != enc {
			t.Fatalf("after frame %d: chunk buffer cap %d (was %d after the first frame), encoder replaced: %v",
				l.Records[start].Frame, sink.chunk.Cap(), bufCap, sink.enc != enc)
		}
		start = end
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if sink.Chunks() < 4 {
		t.Fatalf("%d chunks; the test wants several per sink", sink.Chunks())
	}
	if got := srv.Session("once").Records(); got != len(l.Records) {
		t.Errorf("collector decoded %d records from the sink's chunks, want %d", got, len(l.Records))
	}
}
