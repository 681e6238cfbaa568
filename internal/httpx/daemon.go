package httpx

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// Daemon is one collector-tier process's serving loop: listen, optionally
// open the debug listener, serve, and on SIGINT/SIGTERM drain and exit
// clean.
type Daemon struct {
	// Name prefixes the lifecycle lines written to Stdout.
	Name   string
	Stdout io.Writer

	Addr    string
	Handler http.Handler
	// DebugAddr, when set, opens a second listener serving Debug. pprof is
	// only ever reachable there, never on Addr — profiling a production
	// collector must be a deliberate, separately-firewalled act.
	DebugAddr string
	Debug     http.Handler

	// ReadHeaderTimeout and IdleTimeout bound the serving connections, so a
	// header-stalling client cannot hold one open indefinitely.
	ReadHeaderTimeout time.Duration
	IdleTimeout       time.Duration
	// DrainTimeout is how long in-flight requests get to finish after the
	// signal before their connections are cut.
	DrainTimeout time.Duration

	// Serve runs the accept loop (hs.Serve(ln) in production; tests stub it
	// to exercise a daemon's run() without holding a socket forever).
	Serve func(ln net.Listener, hs *http.Server) error
	// Close releases what the handler owns once the accept loop has
	// returned — the collector's WAL segments. Nil means nothing to release.
	Close func() error
}

// Flags registers the serving flags every collector-tier daemon takes —
// -addr, -debug-addr and the three connection timeouts — bound to d.
func (d *Daemon) Flags(fs *flag.FlagSet) {
	fs.StringVar(&d.Addr, "addr", ":9090", "listen address")
	fs.StringVar(&d.DebugAddr, "debug-addr", "", "serve /metrics, /debug/trace and /debug/pprof on a second listener (empty = off; the main listener serves /metrics and /debug/trace regardless, never pprof)")
	fs.DurationVar(&d.ReadHeaderTimeout, "read-header-timeout", 10*time.Second, "time allowed to read a request's headers before the connection is shed")
	fs.DurationVar(&d.IdleTimeout, "idle-conn-timeout", 2*time.Minute, "keep-alive: how long an idle client connection is kept open")
	fs.DurationVar(&d.DrainTimeout, "drain-timeout", 10*time.Second, "graceful shutdown: how long in-flight requests get to finish after SIGINT/SIGTERM")
}

// Run serves until the accept loop fails or a signal arrives. On a signal
// the listener stops accepting and in-flight requests drain; requests still
// running at DrainTimeout are cut (they were never acked, so their clients
// retry against the restarted daemon). Either way Close runs last.
func (d Daemon) Run() error {
	if d.Close == nil {
		d.Close = func() error { return nil }
	}
	ln, err := net.Listen("tcp", d.Addr)
	if err != nil {
		d.Close()
		return err
	}
	defer ln.Close()
	fmt.Fprintf(d.Stdout, "%s: listening on http://%s (POST /ingest, GET /fleet, /devices/{id})\n", d.Name, ln.Addr())

	if d.DebugAddr != "" {
		dln, err := net.Listen("tcp", d.DebugAddr)
		if err != nil {
			d.Close()
			return fmt.Errorf("debug listener: %w", err)
		}
		dhs := &http.Server{Handler: d.Debug, ReadHeaderTimeout: 10 * time.Second}
		defer dhs.Close() // also closes dln and ends the goroutine below
		go dhs.Serve(dln)
		fmt.Fprintf(d.Stdout, "%s: debug listener on http://%s (/metrics, /debug/trace, /debug/pprof)\n", d.Name, dln.Addr())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	hs := &http.Server{Handler: d.Handler, ReadHeaderTimeout: d.ReadHeaderTimeout, IdleTimeout: d.IdleTimeout}
	errc := make(chan error, 1)
	go func() { errc <- d.Serve(ln, hs) }()
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			d.Close()
			return err
		}
		return d.Close()
	case <-ctx.Done():
		stop()
		fmt.Fprintf(d.Stdout, "%s: signal received: draining in-flight requests (up to %v)\n", d.Name, d.DrainTimeout)
		sctx, cancel := context.WithTimeout(context.Background(), d.DrainTimeout)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			hs.Close()
		}
		<-errc // the accept loop has returned http.ErrServerClosed
		if err := d.Close(); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		fmt.Fprintf(d.Stdout, "%s: shutdown complete\n", d.Name)
		return nil
	}
}
