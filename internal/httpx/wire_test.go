package httpx

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

// TestParseUpload pins the upload-header contract every collector-tier
// module reads through: where the device comes from, what a missing chunk
// header means, and which malformed values are refused.
func TestParseUpload(t *testing.T) {
	for _, tc := range []struct {
		name    string
		url     string
		headers map[string]string
		want    Upload
		wantErr string
	}{
		{
			name:    "device from header",
			url:     "/ingest",
			headers: map[string]string{HeaderDevice: "dev-h", HeaderChunk: "3", HeaderStream: "tok"},
			want:    Upload{Device: "dev-h", Stream: "tok", Chunk: 3},
		},
		{
			name: "device from query, headerless chunk is -1",
			url:  "/ingest?device=dev-q",
			want: Upload{Device: "dev-q", Chunk: -1},
		},
		{
			name:    "header wins over query",
			url:     "/ingest?device=dev-q",
			headers: map[string]string{HeaderDevice: "dev-h"},
			want:    Upload{Device: "dev-h", Chunk: -1},
		},
		{
			name:    "checksum",
			url:     "/ingest?device=d",
			headers: map[string]string{HeaderSum: "00c0ffee"},
			want:    Upload{Device: "d", Chunk: -1, Sum: 0x00c0ffee, HasSum: true},
		},
		{name: "missing device", url: "/ingest", wantErr: "missing device ID"},
		{
			name:    "negative chunk",
			url:     "/ingest?device=d",
			headers: map[string]string{HeaderChunk: "-2"},
			wantErr: `bad X-MLEXray-Chunk "-2"`,
		},
		{
			name:    "garbage chunk",
			url:     "/ingest?device=d",
			headers: map[string]string{HeaderChunk: "seven"},
			wantErr: `bad X-MLEXray-Chunk "seven"`,
		},
		{
			name:    "garbage checksum",
			url:     "/ingest?device=d",
			headers: map[string]string{HeaderSum: "xyz"},
			wantErr: `bad X-MLEXray-Sum "xyz"`,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := httptest.NewRequest(http.MethodPost, tc.url, nil)
			for k, v := range tc.headers {
				r.Header.Set(k, v)
			}
			got, err := ParseUpload(r)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("got %+v, want %+v", got, tc.want)
			}
			// SetHeaders is the inverse: what it writes parses back equal.
			back := httptest.NewRequest(http.MethodPost, "/ingest", nil)
			got.SetHeaders(back.Header)
			if again, err := ParseUpload(back); err != nil || again != got {
				t.Errorf("round trip = %+v, %v; want %+v", again, err, got)
			}
		})
	}
}

// TestEnvelopeGolden pins the reply envelope's bytes: two-space indent,
// trailing newline, the application/json content type. The merged-/fleet
// byte pin between gateway and collector rides on this encoding.
func TestEnvelopeGolden(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusOK, map[string]any{"device": "d0", "chunks": 2, "nested": []int{1}})
	const want = "{\n  \"chunks\": 2,\n  \"device\": \"d0\",\n  \"nested\": [\n    1\n  ]\n}\n"
	if got := rec.Body.String(); got != want {
		t.Errorf("WriteJSON body = %q, want %q", got, want)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}

	rec = httptest.NewRecorder()
	Error(rec, http.StatusConflict, "chunk %d arrived but chunk %d is next", 5, 1)
	const wantErr = "{\n  \"error\": \"chunk 5 arrived but chunk 1 is next\"\n}\n"
	if got := rec.Body.String(); got != wantErr || rec.Code != http.StatusConflict {
		t.Errorf("Error = %d %q, want 409 %q", rec.Code, got, wantErr)
	}
}

// TestStatusWriter pins what the capture reports: the first status written,
// 200 for a body written without one, 200 for a handler that wrote nothing.
func TestStatusWriter(t *testing.T) {
	for name, tc := range map[string]struct {
		handle func(w http.ResponseWriter)
		want   int
	}{
		"explicit":     {func(w http.ResponseWriter) { w.WriteHeader(429); w.WriteHeader(500) }, 429},
		"implicit":     {func(w http.ResponseWriter) { io.WriteString(w, "ok") }, 200},
		"silent":       {func(w http.ResponseWriter) {}, 200},
		"via envelope": {func(w http.ResponseWriter) { Error(w, 503, "later") }, 503},
	} {
		sw := CaptureStatus(httptest.NewRecorder())
		tc.handle(sw)
		if got := sw.Status(); got != tc.want {
			t.Errorf("%s: Status() = %d, want %d", name, got, tc.want)
		}
	}
}

// TestStatusWriterKeepsDeadlines pins Unwrap: a read deadline set through
// the capturing writer reaches the real connection and fires — the
// collector's slow-loris defence must survive being instrumented.
func TestStatusWriterKeepsDeadlines(t *testing.T) {
	readErr := make(chan error, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := CaptureStatus(w)
		if err := http.NewResponseController(sw).SetReadDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
			readErr <- err
			return
		}
		_, err := io.ReadAll(r.Body)
		readErr <- err
	}))
	defer ts.Close()

	// A body that never finishes: the handler's read can only end by deadline.
	pr, pw := io.Pipe()
	defer pw.Close()
	go func() {
		resp, err := http.Post(ts.URL, "application/octet-stream", pr)
		if err == nil {
			resp.Body.Close()
		}
	}()
	pw.Write([]byte("x"))
	select {
	case err := <-readErr:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("body read ended with %v, want a deadline error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("read deadline set through StatusWriter never fired")
	}
}

// TestDoAndGet pins the in-process driver: status and body come back, no
// socket involved.
func TestDoAndGet(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && r.URL.Path == "/fleet" {
			WriteJSON(w, http.StatusOK, []int{})
			return
		}
		Error(w, http.StatusNotFound, "no %s", r.URL.Path)
	})
	if code, body := Get(h, "/fleet"); code != 200 || string(body) != "[]\n" {
		t.Errorf("Get /fleet = %d %q", code, body)
	}
	req := httptest.NewRequest(http.MethodPost, "/ingest", strings.NewReader("x"))
	if code, body := Do(h, req); code != 404 || !strings.Contains(string(body), "no /ingest") {
		t.Errorf("Do POST = %d %q", code, body)
	}
}
