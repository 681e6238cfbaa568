package replay

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"mlexray/internal/core"
	"mlexray/internal/ingest"
	"mlexray/internal/interp"
	"mlexray/internal/ops"
	"mlexray/internal/storm"
	"mlexray/internal/tensor"
	"mlexray/internal/zoo"
)

// TestEmitReplayBenchJSON writes the replay-performance artifact CI tracks
// across PRs: ns/frame of the batched replay engine at several batch sizes
// and the allocation profile of the steady-state interpreter invoke. It
// runs only when BENCH_REPLAY_JSON names the output path, so ordinary test
// runs skip it.
func TestEmitReplayBenchJSON(t *testing.T) {
	path := os.Getenv("BENCH_REPLAY_JSON")
	if path == "" {
		t.Skip("set BENCH_REPLAY_JSON=<path> to emit the benchmark artifact")
	}

	type entry struct {
		NsPerFrame        float64 `json:"ns_per_frame"`
		Backend           string  `json:"backend,omitempty"`
		FramesPerSec      float64 `json:"frames_per_sec,omitempty"`
		LogBytesPerFrame  float64 `json:"log_bytes_per_frame,omitempty"`
		WireBytesPerFrame float64 `json:"wire_bytes_per_frame,omitempty"`
		AllocsPerOp       int64   `json:"allocs_per_op"`
		BytesPerOp        int64   `json:"bytes_per_op"`
		Iterations        int     `json:"iterations"`
		// Storm-harness fields (the ingest_storm entries only).
		P99LatencyNs int64                 `json:"p99_latency_ns,omitempty"`
		PeakRSSBytes int64                 `json:"peak_rss_bytes,omitempty"`
		StatusCounts map[string]int        `json:"status_counts,omitempty"`
		LatencyHist  []storm.LatencyBucket `json:"latency_hist,omitempty"`
		Shards       int                   `json:"shards,omitempty"`
	}
	results := map[string]entry{}

	for _, batch := range []int{1, 8, 32} {
		batch := batch
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			benchReplay(b, 1, batch)
		})
		results[fmt.Sprintf("replay_batch%d", batch)] = entry{
			NsPerFrame:  r.Extra["ns/frame"],
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Iterations:  r.N,
		}
	}

	// Fleet scheduler scaling: ns/frame with 1, 2 and 4 simulated devices
	// (one worker each) sharding the same replay — the fleet path's entry in
	// the perf trajectory.
	for _, ndev := range []int{1, 2, 4} {
		ndev := ndev
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			benchReplayFleet(b, ndev)
		})
		results[fmt.Sprintf("replay_fleet_dev%d", ndev)] = entry{
			NsPerFrame:  r.Extra["ns/frame"],
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Iterations:  r.N,
		}
	}

	// Full-capture replay in both log encodings: ns/frame and serialized
	// bytes/frame — the encoding datapoint of the perf trajectory. The
	// binary path must clear 1.8x the JSONL full-capture throughput (the
	// codec-redesign target; measured ~3x on the reference machine).
	for _, format := range []core.LogFormat{core.FormatJSONL, core.FormatBinary} {
		format := format
		r := testing.Benchmark(func(b *testing.B) {
			benchReplayFullCapture(b, format)
		})
		results["replay_full_"+format.String()] = entry{
			NsPerFrame:       r.Extra["ns/frame"],
			LogBytesPerFrame: r.Extra["log-bytes/frame"],
			AllocsPerOp:      r.AllocsPerOp(),
			BytesPerOp:       r.AllocedBytesPerOp(),
			Iterations:       r.N,
		}
	}
	// The JSONL path with the parallel encode stage disabled — the baseline
	// that records what worker pre-marshaling buys (on multi-core hosts the
	// collector's serial share shrinks to seq-patch + concatenate).
	rSerial := testing.Benchmark(func(b *testing.B) {
		benchReplayFullCaptureSerialJSONL(b)
	})
	results["replay_full_jsonl_serial"] = entry{
		NsPerFrame:       rSerial.Extra["ns/frame"],
		LogBytesPerFrame: rSerial.Extra["log-bytes/frame"],
		AllocsPerOp:      rSerial.AllocsPerOp(),
		BytesPerOp:       rSerial.AllocedBytesPerOp(),
		Iterations:       rSerial.N,
	}

	jsonlFull := results["replay_full_jsonl"]
	binFull := results["replay_full_binary"]
	if binFull.NsPerFrame >= jsonlFull.NsPerFrame {
		t.Errorf("binary full-capture replay (%.0f ns/frame) not faster than JSONL (%.0f ns/frame)",
			binFull.NsPerFrame, jsonlFull.NsPerFrame)
	}
	if binFull.LogBytesPerFrame >= jsonlFull.LogBytesPerFrame {
		t.Errorf("binary log (%.0f B/frame) not smaller than JSONL (%.0f B/frame)",
			binFull.LogBytesPerFrame, jsonlFull.LogBytesPerFrame)
	}
	t.Logf("full-capture throughput: binary %.2fx JSONL (%.0f vs %.0f ns/frame)",
		jsonlFull.NsPerFrame/binFull.NsPerFrame, binFull.NsPerFrame, jsonlFull.NsPerFrame)
	// Pre-encoded and serial-collector JSONL write the same format: the
	// parallel encode stage may only move work, never change the encoding.
	// (Exact byte counts jitter run to run — wall-clock latency values
	// serialize with varying digit counts — so compare within a hair.)
	got, want := jsonlFull.LogBytesPerFrame, results["replay_full_jsonl_serial"].LogBytesPerFrame
	if got < 0.995*want || got > 1.005*want {
		t.Errorf("pre-encoded JSONL writes %.0f B/frame, serial collector %.0f", got, want)
	}
	t.Logf("JSONL full-capture: pre-encode %.0f ns/frame vs serial collector %.0f ns/frame",
		jsonlFull.NsPerFrame, results["replay_full_jsonl_serial"].NsPerFrame)

	// Ingestion throughput: one pre-captured full-capture stream uploaded per
	// iteration through a RemoteSink into a live collector that validates it
	// incrementally against the same log — ns/frame, frames/sec and wire
	// bytes/frame with and without gzip (the telemetry-upload datapoint of
	// the perf trajectory). Gzip must shrink the wire.
	for _, variant := range []struct {
		name    string
		gz      bool
		durable bool
	}{
		{"ingest_binary_gzip", true, false},
		// The durable collector: every chunk fsynced to its write-ahead
		// segment before the ack — prices exact crash recovery against the
		// in-memory ingest_binary baseline.
		{"ingest_binary_durable", false, true},
	} {
		variant := variant
		r := testing.Benchmark(func(b *testing.B) {
			dir := ""
			if variant.durable {
				dir = b.TempDir()
			}
			benchIngestUpload(b, variant.gz, dir, false)
		})
		results[variant.name] = entry{
			NsPerFrame:        r.Extra["ns/frame"],
			FramesPerSec:      r.Extra["frames/sec"],
			WireBytesPerFrame: r.Extra["wire-bytes/frame"],
			AllocsPerOp:       r.AllocsPerOp(),
			BytesPerOp:        r.AllocedBytesPerOp(),
			Iterations:        r.N,
		}
	}
	// The instrumentation-overhead pin: the same in-memory upload against a
	// bare collector (DisableMetrics — the pre-observability baseline,
	// published as ingest_binary) and a fully instrumented one (counters,
	// latency histograms, trace ring). Like the gemm race below, the two
	// configurations run in interleaved rounds and score by minimum
	// ns/frame, because localhost HTTP jitter between back-to-back runs is
	// larger than the margin under test (five rounds, not gemm's three:
	// the upload path is noisier than the pure-CPU invoke loop).
	const ingestRounds = 5
	for round := 0; round < ingestRounds; round++ {
		for _, variant := range []struct {
			name  string
			instr bool
		}{
			{"ingest_binary", false},
			{"ingest_binary_instrumented", true},
		} {
			variant := variant
			r := testing.Benchmark(func(b *testing.B) {
				benchIngestUpload(b, false, "", variant.instr)
			})
			e := entry{
				NsPerFrame:        r.Extra["ns/frame"],
				FramesPerSec:      r.Extra["frames/sec"],
				WireBytesPerFrame: r.Extra["wire-bytes/frame"],
				AllocsPerOp:       r.AllocsPerOp(),
				BytesPerOp:        r.AllocedBytesPerOp(),
				Iterations:        r.N,
			}
			if prev, ok := results[variant.name]; ok && prev.NsPerFrame <= e.NsPerFrame {
				continue
			}
			results[variant.name] = e
		}
	}
	if gzWire, plainWire := results["ingest_binary_gzip"].WireBytesPerFrame, results["ingest_binary"].WireBytesPerFrame; gzWire >= plainWire {
		t.Errorf("gzip upload wire bytes %.0f/frame not below plain %.0f/frame", gzWire, plainWire)
	}
	t.Logf("ingest: %.0f frames/sec plain (%.0f wire B/frame), %.0f frames/sec gzip (%.0f wire B/frame)",
		results["ingest_binary"].FramesPerSec, results["ingest_binary"].WireBytesPerFrame,
		results["ingest_binary_gzip"].FramesPerSec, results["ingest_binary_gzip"].WireBytesPerFrame)
	// The durability tax is hardware-dependent (fsync latency), so log it
	// rather than asserting an ordering a fast NVMe could invert.
	t.Logf("ingest durable: %.0f frames/sec (%.2fx the in-memory path)",
		results["ingest_binary_durable"].FramesPerSec,
		results["ingest_binary_durable"].NsPerFrame/results["ingest_binary"].NsPerFrame)
	// Observability must be effectively free on the ingest hot path: the
	// instrumented collector (atomic counters, log-bucketed histograms, the
	// bounded trace ring) stays within 3% of the bare one.
	overhead := results["ingest_binary_instrumented"].NsPerFrame / results["ingest_binary"].NsPerFrame
	if overhead >= 1.03 {
		t.Errorf("instrumented ingest %.4fx the bare collector (%.0f vs %.0f ns/frame), want < 1.03x",
			overhead, results["ingest_binary_instrumented"].NsPerFrame, results["ingest_binary"].NsPerFrame)
	} else {
		t.Logf("ingest instrumented: %.4fx the bare collector (%.0f vs %.0f ns/frame)",
			overhead, results["ingest_binary_instrumented"].NsPerFrame, results["ingest_binary"].NsPerFrame)
	}

	// Collector under fire: the storm harness drives a live collector with a
	// fault-injecting device swarm (disconnects, slow-loris, corrupt bytes,
	// lost acks, duplicated/reordered retries, one mid-storm kill/restart)
	// and records sustained throughput, p99 ingest latency, peak RSS and the
	// status histogram — the graceful-degradation datapoints of the perf
	// trajectory. The clean variant is the fault-free swarm baseline the
	// chaos numbers are read against.
	for _, variant := range []struct {
		name   string
		faults storm.Faults
		kill   int
		shards int
	}{
		{"ingest_storm_clean", storm.Faults{}, 0, 0},
		{"ingest_storm", storm.AllFaults(), 60, 0},
		// The sharded topology: the same chaos swarm uploading through the
		// consistent-hash gateway into a 4-shard ring, with the kill act
		// taking down one shard (WAL rotation on) — throughput and latency
		// of horizontal ingest vs the single-collector rows above.
		{"ingest_sharded", storm.AllFaults(), 60, 4},
	} {
		// All variants run the durable collector with idle eviction: past
		// the session cap, slots only free when idle devices age out, so a
		// capped in-memory collector would strand the overflow forever.
		// (The sharded variant skips the per-shard session cap: the ring
		// already divides the fleet.)
		opts := storm.Options{
			Devices:         96,
			FramesPerDevice: 2,
			Faults:          variant.faults,
			Seed:            1,
			Shards:          variant.shards,
			Collector: ingest.ServerOptions{
				DataDir:      t.TempDir(),
				IdleTimeout:  250 * time.Millisecond,
				ReadTimeout:  150 * time.Millisecond,
				WriteTimeout: time.Second,
			},
			Stragglers:      0.05,
			KillAfterChunks: variant.kill,
		}
		if variant.shards == 0 {
			opts.Collector.MaxSessions = 48
			opts.Collector.MaxChunksPerSec = 5
			opts.Collector.ChunkBurst = 1
		} else {
			opts.Collector.SegmentBytes = 4096
		}
		res, err := storm.Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.CheckInvariants(); err != nil {
			t.Errorf("%s: %v", variant.name, err)
		}
		statuses := make(map[string]int, len(res.StatusCounts))
		for code, n := range res.StatusCounts {
			statuses[strconv.Itoa(code)] = n
		}
		results[variant.name] = entry{
			NsPerFrame:   res.Elapsed.Seconds() / float64(res.Frames) * 1e9,
			FramesPerSec: res.FramesPerSec,
			P99LatencyNs: res.P99Latency.Nanoseconds(),
			PeakRSSBytes: res.PeakRSSBytes,
			StatusCounts: statuses,
			LatencyHist:  res.LatencyHist,
			Shards:       res.Shards,
			Iterations:   1,
		}
		t.Logf("%s: %.0f frames/sec, p99 %v, rss %d MiB, statuses %v",
			variant.name, res.FramesPerSec, res.P99Latency.Round(time.Microsecond),
			res.PeakRSSBytes>>20, statuses)
	}

	entryZoo, err := zoo.Get("mobilenetv2-mini")
	if err != nil {
		t.Fatal(err)
	}
	m := entryZoo.Mobile
	in := tensor.New(tensor.F32, 1, m.Meta.InputH, m.Meta.InputW, m.Meta.InputC)
	in.Fill(0.3)
	ip, err := interp.New(m, ops.NewOptimized(ops.Fixed()))
	if err != nil {
		t.Fatal(err)
	}
	if err := ip.SetInput(0, in); err != nil {
		t.Fatal(err)
	}
	if err := ip.Invoke(); err != nil { // warm kernel caches
		t.Fatal(err)
	}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := ip.Invoke(); err != nil {
				b.Fatal(err)
			}
		}
	})
	results["invoke_batch1"] = entry{
		NsPerFrame:  float64(r.NsPerOp()),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Iterations:  r.N,
	}
	if got := results["invoke_batch1"].AllocsPerOp; got != 0 {
		t.Errorf("steady-state Invoke allocates %d objects/op, want 0", got)
	}

	// Kernel-backend race on the same invoke hot loop: the float and the
	// quantized model under both backends — the micro-kernel datapoints of
	// the perf trajectory. Every configuration must stay allocation-free in
	// steady state, and the tiled backend must clear 1.3x reference on float
	// and beat the reference backend's int8 path — the reference resolver's
	// conv, depthwise and dense loop nests — on int8.
	// The ratio asserts are between
	// configurations measured minutes apart if run back to back, and host
	// frequency drift over that span is larger than the assert margin — so
	// run the configurations in interleaved rounds and score each by its
	// minimum ns/frame (the least-perturbed observation).
	gemmConfigs := []struct {
		name    string
		backend ops.Backend
		quant   bool
	}{
		{"invoke_gemm_reference", ops.BackendReference, false},
		{"invoke_gemm_tiled", ops.BackendTiled, false},
		{"invoke_gemm_int8_reference", ops.BackendReference, true},
		{"invoke_gemm_int8", ops.BackendTiled, true},
	}
	const gemmRounds = 3
	for round := 0; round < gemmRounds; round++ {
		for _, cfg := range gemmConfigs {
			cfg := cfg
			r := testing.Benchmark(func(b *testing.B) {
				benchInvokeBackend(b, cfg.backend, cfg.quant)
			})
			if got := r.AllocsPerOp(); got != 0 {
				t.Errorf("%s: steady-state Invoke allocates %d objects/op, want 0", cfg.name, got)
			}
			e := entry{
				NsPerFrame:  r.Extra["ns/frame"],
				Backend:     cfg.backend.String(),
				AllocsPerOp: r.AllocsPerOp(),
				BytesPerOp:  r.AllocedBytesPerOp(),
				Iterations:  r.N,
			}
			if prev, ok := results[cfg.name]; ok && prev.NsPerFrame <= e.NsPerFrame {
				continue
			}
			results[cfg.name] = e
		}
	}
	refNs := results["invoke_gemm_reference"].NsPerFrame
	tiledNs := results["invoke_gemm_tiled"].NsPerFrame
	if speedup := refNs / tiledNs; speedup < 1.3 {
		t.Errorf("tiled float backend %.2fx reference (%.0f vs %.0f ns/frame), want >= 1.3x",
			speedup, tiledNs, refNs)
	} else {
		t.Logf("invoke gemm float: tiled %.2fx reference (%.0f vs %.0f ns/frame)",
			speedup, tiledNs, refNs)
	}
	int8Ref := results["invoke_gemm_int8_reference"].NsPerFrame
	int8Tiled := results["invoke_gemm_int8"].NsPerFrame
	if int8Tiled >= int8Ref {
		t.Errorf("int8 packed path (%.0f ns/frame) not faster than the reference backend's int8 kernels (%.0f ns/frame)",
			int8Tiled, int8Ref)
	} else {
		t.Logf("invoke gemm int8: tiled %.2fx reference (%.0f vs %.0f ns/frame)",
			int8Ref/int8Tiled, int8Tiled, int8Ref)
	}

	artifact := struct {
		Schema     string           `json:"schema"`
		Model      string           `json:"model"`
		Frames     int              `json:"frames_per_replay"`
		GoMaxProcs int              `json:"gomaxprocs"`
		Results    map[string]entry `json:"results"`
	}{
		Schema:     "mlexray-bench-replay/v1",
		Model:      "mobilenetv2-mini (optimized resolver, float)",
		Frames:     benchFrames,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Results:    results,
	}
	data, err := json.MarshalIndent(artifact, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", path)
}
