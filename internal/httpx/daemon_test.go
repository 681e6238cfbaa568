package httpx

import (
	"bytes"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestDaemonDebugListenerAndClose drives the serving loop with the accept
// loop stubbed: the debug listener serves Debug (and only there) while the
// daemon runs, and when the accept loop returns Close runs and the debug
// listener is gone. The signal/drain leg is exercised against the real
// daemon in cmd/exrayd's SIGTERM test.
func TestDaemonDebugListenerAndClose(t *testing.T) {
	main := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "main") })
	debug := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "debug") })
	var out bytes.Buffer
	var debugURL string
	closed := false
	d := Daemon{
		Name: "testd", Stdout: &out,
		Addr: "127.0.0.1:0", Handler: main,
		DebugAddr: "127.0.0.1:0", Debug: debug,
		DrainTimeout: time.Second,
		Serve: func(ln net.Listener, hs *http.Server) error {
			banner := out.String()
			_, rest, ok := strings.Cut(banner, "testd: debug listener on ")
			if !ok {
				t.Errorf("no debug banner:\n%s", banner)
				return nil
			}
			debugURL = strings.Fields(rest)[0]
			resp, err := http.Get(debugURL)
			if err != nil {
				t.Errorf("debug listener: %v", err)
				return nil
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if string(body) != "debug" {
				t.Errorf("debug listener served %q", body)
			}
			if _, body := Get(hs.Handler, "/"); string(body) != "main" {
				t.Errorf("serving handler answered %q", body)
			}
			return http.ErrServerClosed
		},
		Close: func() error { closed = true; return nil },
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	if !closed {
		t.Error("Close did not run after the accept loop returned")
	}
	if !strings.Contains(out.String(), "testd: listening on http://127.0.0.1:") {
		t.Errorf("no listen banner:\n%s", out.String())
	}
	if resp, err := http.Get(debugURL); err == nil {
		resp.Body.Close()
		t.Error("debug listener still serving after Run returned")
	}

	// An accept-loop failure is the daemon's error, and Close still runs.
	closed = false
	boom := errors.New("accept failed")
	d.DebugAddr = ""
	d.Serve = func(net.Listener, *http.Server) error { return boom }
	if err := d.Run(); !errors.Is(err, boom) {
		t.Errorf("Run = %v, want the accept loop's error", err)
	}
	if !closed {
		t.Error("Close did not run after the accept loop failed")
	}
}
