// Command exrayd is the ML-EXray telemetry ingestion daemon: the cloud half
// of the deployment-validation workflow. Edge devices (or edgerun -upload)
// stream their telemetry logs to it over HTTP; the daemon sessionizes the
// streams by device ID and validates each one incrementally against the
// reference log as frames arrive, so per-device and fleet-wide reports are
// ready the moment the uploads finish — identical to running cmd/exray on
// the stored logs, without storing them.
//
// Endpoints:
//
//	POST /ingest?device=ID   upload a log chunk (JSONL or MLXB, plain/gzip)
//	GET  /devices            all device session statuses (JSON)
//	GET  /devices/{device}   one session's status + incremental report
//	GET  /fleet              fleet-wide cross-validation report
//	GET  /fleet/export       per-session accumulator snapshots (what a
//	                         sharding gateway merges; see cmd/exraygw)
//	GET  /healthz            liveness + per-session WAL segment stats
//	GET  /metrics            Prometheus text exposition (self-telemetry)
//	GET  /debug/trace        recent request spans as JSON (bounded ring)
//
// With -debug-addr a second listener additionally serves /metrics,
// /debug/trace and the net/http/pprof endpoints — pprof is never exposed
// on the ingest address.
//
// Usage:
//
//	refrun -o ref.jsonl -frames 24
//	exrayd -ref ref.jsonl -addr :9090
//	edgerun -frames 24 -upload http://localhost:9090 -o edge.jsonl
//	curl localhost:9090/fleet
//
// Without -ref the daemon runs in collection mode: uploads are sessionized
// and counted but the report endpoints return 409.
//
// With -data-dir the daemon is durable: every accepted chunk is appended to
// a per-session write-ahead segment under the directory and fsynced before
// the 200 ack, and a restarted daemon replays the segments so the recovered
// reports are exactly what an uninterrupted run would serve. -max-sessions
// and -max-chunk-rate add admission control (503/429 with Retry-After; the
// upload clients treat both as transient and retry), and -evict-idle frees
// session slots held by silent devices — their segments stay on disk, so
// the next chunk resurrects the session exactly.
//
// SIGINT/SIGTERM shut the daemon down gracefully: the listener stops
// accepting, in-flight uploads drain (bounded by -drain-timeout), the WAL
// segments close, and the process exits 0 — a restart recovers every acked
// chunk.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"mlexray/internal/core"
	"mlexray/internal/httpx"
	"mlexray/internal/ingest"
	"mlexray/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "exrayd:", err)
		os.Exit(1)
	}
}

// serve runs the accept loop; tests stub it out to exercise run() without
// binding the process to a socket forever.
var serve = func(ln net.Listener, hs *http.Server) error {
	return hs.Serve(ln)
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("exrayd", flag.ContinueOnError)
	d := httpx.Daemon{Name: "exrayd", Stdout: stdout, Serve: serve}
	d.Flags(fs)
	var (
		refPath      = fs.String("ref", "", "reference log to validate uploads against (JSONL or MLXB, plain or gzip; empty = collection mode)")
		agreement    = fs.Float64("agreement", 0, "output-agreement threshold (0 = default)")
		maxBody      = fs.Int64("max-body", 0, "per-chunk upload size cap in bytes (0 = 1GiB)")
		dataDir      = fs.String("data-dir", "", "write-ahead log directory: accepted chunks are fsynced here before the ack, and a restart replays them to recover every session exactly (empty = in-memory only)")
		segBytes     = fs.Int64("segment-bytes", 0, "roll a session's WAL to a new numbered segment once the active one passes this many bytes; closed segments compact automatically (requires -data-dir; 0 = one segment per session)")
		compactAfter = fs.Int("compact-after", 0, "merge closed WAL segments once this many accumulate (0 = default 4 when rotation is on; negative = never compact)")
		maxSessions  = fs.Int("max-sessions", 0, "cap on concurrent device sessions; new devices past it get 503 + Retry-After (0 = unlimited)")
		maxChunkRate = fs.Float64("max-chunk-rate", 0, "per-device accepted-chunk rate limit in chunks/sec; over-rate chunks get 429 + Retry-After (0 = unlimited)")
		evictIdle    = fs.Duration("evict-idle", 0, "evict sessions idle this long; their WAL segments stay recoverable (requires -data-dir; 0 = never)")
		readTimeout  = fs.Duration("read-timeout", time.Minute, "per-request body read deadline: sheds slow-loris uploads (0 = none)")
		writeTimeout = fs.Duration("write-timeout", time.Minute, "per-request response write deadline (0 = none)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// One shared registry: the collector's counters and the process runtime
	// gauges land on the same scrape endpoint.
	reg := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(reg)

	opts := ingest.ServerOptions{
		Metrics:         reg,
		MaxBodyBytes:    *maxBody,
		DataDir:         *dataDir,
		SegmentBytes:    *segBytes,
		CompactAfter:    *compactAfter,
		MaxSessions:     *maxSessions,
		MaxChunksPerSec: *maxChunkRate,
		IdleTimeout:     *evictIdle,
		ReadTimeout:     *readTimeout,
		WriteTimeout:    *writeTimeout,
	}
	if *refPath != "" {
		f, err := os.Open(*refPath)
		if err != nil {
			return err
		}
		ref, err := core.ReadLog(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("reference log %s: %w", *refPath, err)
		}
		opts.Ref = ref
		opts.Validate = core.DefaultValidateOptions()
		if *agreement > 0 {
			opts.Validate.AgreementThreshold = *agreement
		}
		fmt.Fprintf(stdout, "exrayd: reference %s (%d records, %d frames)\n",
			*refPath, len(ref.Records), ref.Frames())
	} else {
		fmt.Fprintf(stdout, "exrayd: no -ref: collection mode (report endpoints return 409)\n")
	}

	srv, err := ingest.NewServer(opts)
	if err != nil {
		return err
	}
	if *dataDir != "" {
		rs := srv.Recovery()
		fmt.Fprintf(stdout, "exrayd: durable ingest under %s: recovered %d sessions (%d chunks, %d records",
			*dataDir, rs.Sessions, rs.Chunks, rs.Records)
		if rs.TruncatedBytes > 0 {
			fmt.Fprintf(stdout, "; truncated %d torn tail bytes", rs.TruncatedBytes)
		}
		if rs.SkippedChunks > 0 {
			fmt.Fprintf(stdout, "; skipped %d corrupt chunks", rs.SkippedChunks)
		}
		fmt.Fprintf(stdout, ")\n")
	}
	d.Handler, d.Debug = srv, obs.DebugMux(reg, srv.Traces())
	// Closing the WAL segments last is what makes the restart exact: every
	// ack landed before them, every cut upload was never acked.
	d.Close = srv.Close
	return d.Run()
}
