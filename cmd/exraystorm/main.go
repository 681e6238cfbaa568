// Command exraystorm storm-tests the telemetry collector: it boots a live
// ingest daemon in-process and drives it with a synthetic device swarm
// through real upload clients, while a fault-injection layer damages the
// traffic — mid-chunk disconnects, slow-loris writes, corrupt bytes, lost
// acks, duplicated and reordered retries — and (optionally) the collector
// itself is hard-killed and restarted mid-storm.
//
// The storm is judged, not just survived. exraystorm exits nonzero unless
// every graceful-degradation invariant held:
//
//   - every upload response carried a documented status
//     (200/400/409/413/429/500/503, plus 502 from the sharding gateway),
//   - every 200-acked chunk survived crash recovery byte-exactly (the
//     recovered /fleet equals a fault-free reference over the same acks),
//   - every device sink drained despite throttling, caps and restarts,
//   - idle eviction reclaimed every session slot after the storm,
//   - the collectors' own /metrics counters, scraped after the final
//     recovery, reconcile with the client-observed set of acked chunks
//     (the self-telemetry must be as honest as the data path).
//
// While the swarm runs, a scrape loop samples every collector's (and the
// gateway's) /metrics the way an external Prometheus would, so exposition
// is exercised under full ingest load and crash/restart churn.
//
// Usage:
//
//	exraystorm -devices 200 -frames 2 -data-dir /tmp/storm -kill-after 100
//	exraystorm -devices 32 -seed 7 -json storm.json
//	exraystorm -devices 64 -shards 4 -data-dir /tmp/storm -kill-after 40
//
// With -shards N the swarm uploads through a consistent-hash gateway into a
// ring of N collector shards, the kill act takes down a single shard while
// the rest keep serving, and the judged /fleet is the gateway's merged
// report — still pinned byte-identical to the fault-free single-collector
// reference.
//
// The report prints throughput (frames/sec), p99 ingest latency, peak RSS,
// the status-code histogram and the per-fault injection counts; -json
// writes the full result for the bench tooling.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"mlexray/internal/ingest"
	"mlexray/internal/storm"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "exraystorm:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("exraystorm", flag.ContinueOnError)
	var (
		devices   = fs.Int("devices", 200, "swarm size (concurrent simulated devices)")
		frames    = fs.Int("frames", 2, "frames per device")
		seed      = fs.Uint64("seed", 1, "storm randomness seed (same seed, same swarm)")
		shards    = fs.Int("shards", 0, "run a consistent-hash ring of this many collector shards behind an in-process gateway; the kill act takes down one shard (0 or 1 = single collector)")
		dataDir   = fs.String("data-dir", "", "collector write-ahead log directory (empty = in-memory collector; required for -kill-after and -evict-idle)")
		segBytes  = fs.Int64("segment-bytes", 0, "WAL segment-rotation threshold in bytes (0 = single-segment WALs)")
		sessions  = fs.Int("max-sessions", 64, "collector session cap (0 = unlimited)")
		chunkRate = fs.Float64("max-chunk-rate", 5, "per-device accepted-chunk rate limit (0 = unlimited)")
		burst     = fs.Int("chunk-burst", 1, "rate limiter burst size")
		evictIdle = fs.Duration("evict-idle", 250*time.Millisecond, "collector idle-session eviction horizon (0 = never evict)")
		readTO    = fs.Duration("read-timeout", 150*time.Millisecond, "collector per-request body read deadline (what sheds slow-loris uploads; 0 = none)")
		writeTO   = fs.Duration("write-timeout", time.Second, "collector per-request response write deadline (0 = none)")
		killAfter = fs.Int("kill-after", 100, "hard-kill and restart the collector after this many acked chunks (0 = never)")
		straggler = fs.Float64("stragglers", 0.05, "fraction of devices that stall mid-stream")
		stallFor  = fs.Duration("stall-for", 300*time.Millisecond, "how long a straggler stalls")
		sinkMax   = fs.Duration("sink-budget", 90*time.Second, "each device sink's total retry budget")
		noFaults  = fs.Bool("no-faults", false, "disable the chaos layer (clean-load baseline)")
		jsonPath  = fs.String("json", "", "also write the full result as JSON to this file")
		quiet     = fs.Bool("quiet", false, "suppress the storm narration, print only the report")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataDir == "" && (*killAfter > 0 || *evictIdle > 0) {
		return fmt.Errorf("-kill-after and -evict-idle need -data-dir (recovery needs a WAL); pass -data-dir or set both to 0")
	}

	opts := storm.Options{
		Devices:         *devices,
		FramesPerDevice: *frames,
		Seed:            *seed,
		Shards:          *shards,
		Collector: ingest.ServerOptions{
			DataDir:         *dataDir,
			SegmentBytes:    *segBytes,
			MaxSessions:     *sessions,
			MaxChunksPerSec: *chunkRate,
			ChunkBurst:      *burst,
			IdleTimeout:     *evictIdle,
			ReadTimeout:     *readTO,
			WriteTimeout:    *writeTO,
		},
		KillAfterChunks: *killAfter,
		Stragglers:      *straggler,
		StallFor:        *stallFor,
		SinkMaxElapsed:  *sinkMax,
	}
	if !*noFaults {
		opts.Faults = storm.AllFaults()
	}
	if !*quiet {
		opts.Logf = func(format string, args ...any) {
			fmt.Fprintf(stdout, format+"\n", args...)
		}
	}

	res, err := storm.Run(opts)
	if err != nil {
		return err
	}
	report(stdout, res)
	if *jsonPath != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "result written to %s\n", *jsonPath)
	}
	if err := res.CheckInvariants(); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "PASS: all graceful-degradation invariants held")
	return nil
}

func report(w io.Writer, res *storm.Result) {
	fmt.Fprintf(w, "\nstorm: %d devices, %d frames in %v",
		res.Devices, res.Frames, res.Elapsed.Round(time.Millisecond))
	if res.Shards > 1 {
		fmt.Fprintf(w, " across %d shards", res.Shards)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  throughput   %.1f frames/sec\n", res.FramesPerSec)
	fmt.Fprintf(w, "  p99 latency  %v\n", res.P99Latency.Round(time.Microsecond))
	if len(res.LatencyHist) > 0 {
		fmt.Fprintf(w, "  p99 history ")
		for _, b := range res.LatencyHist {
			fmt.Fprintf(w, " %v", (time.Duration(b.P99Ns) * time.Nanosecond).Round(time.Millisecond))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  peak rss     %.1f MiB\n", float64(res.PeakRSSBytes)/(1<<20))
	fmt.Fprintf(w, "  acked chunks %d (recovered %d across %d sessions)\n",
		res.AckedChunks, res.RecoveredChunks, res.RecoveredSessions)
	fmt.Fprintf(w, "  lifecycle    %d restarts, %d evictions, %d resurrections, %d leaked sessions\n",
		res.Restarts, res.Evictions, res.Resurrections, res.LeakedSessions)

	codes := make([]int, 0, len(res.StatusCounts))
	for code := range res.StatusCounts {
		codes = append(codes, code)
	}
	sort.Ints(codes)
	fmt.Fprintf(w, "  statuses    ")
	for _, code := range codes {
		fmt.Fprintf(w, " %d:%d", code, res.StatusCounts[code])
	}
	fmt.Fprintln(w)

	if len(res.FaultsInjected) > 0 {
		names := make([]string, 0, len(res.FaultsInjected))
		for name := range res.FaultsInjected {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "  faults      ")
		for _, name := range names {
			fmt.Fprintf(w, " %s:%d", name, res.FaultsInjected[name])
		}
		fmt.Fprintf(w, " (%d net errors)\n", res.NetErrors)
	}

	// The server-side view: what the collectors' own /metrics reported,
	// folded across shards after the final recovery. The reconcile line is
	// the telemetry-honesty check — server counters vs client-observed acks.
	if res.ServerMetrics != nil {
		fmt.Fprintf(w, "  scrapes      %d mid-storm /metrics samples\n", res.ScrapeSamples)
		verdict := "reconciled"
		if res.ServerChunks != res.DistinctAckedChunks {
			verdict = "MISMATCH"
		}
		fmt.Fprintf(w, "  server view  %d chunks counted vs %d distinct acked (%s)\n",
			res.ServerChunks, res.DistinctAckedChunks, verdict)
		for _, name := range []string{
			"mlexray_ingest_records_total",
			"mlexray_ingest_bytes_total",
			"mlexray_ingest_duplicate_chunks_total",
			"mlexray_ingest_rate_limited_total",
			"mlexray_ingest_session_cap_rejects_total",
			"mlexray_wal_fsync_seconds_count",
		} {
			if v := res.ServerMetrics[name]; v != 0 {
				fmt.Fprintf(w, "    %-42s %.0f\n", name, v)
			}
		}
	}
}
