package storm

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"mlexray/internal/ingest"
	"mlexray/internal/obs"
)

// waitGoroutines polls for the goroutine count to settle back near the
// baseline, giving pooled-connection and server goroutines time to exit.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := runtime.NumGoroutine()
		// Allow a small slack: the runtime's own background goroutines
		// (GC workers, timer scavenger) come and go.
		if n <= baseline+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines leaked: %d now vs %d baseline\n%s", n, baseline, buf)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestStormOptionValidation pins the harness's own guard rails.
func TestStormOptionValidation(t *testing.T) {
	if _, err := Run(Options{Devices: 1, KillAfterChunks: 1}); err == nil {
		t.Error("kill/restart without DataDir accepted")
	}
	if _, err := Run(Options{Devices: 1, Collector: ingest.ServerOptions{IdleTimeout: time.Second}}); err == nil {
		t.Error("idle eviction without DataDir accepted")
	}
}

// TestStormInMemoryClean runs a small fault-free in-memory storm: the
// baseline sanity check that the harness itself (recorder, reference
// replay, metrics) is sound before any chaos is layered on.
func TestStormInMemoryClean(t *testing.T) {
	baseline := runtime.NumGoroutine()
	res, err := Run(Options{
		Devices:         8,
		FramesPerDevice: 2,
		Seed:            7,
		ScrapeEvery:     10 * time.Millisecond, // fast storm: make sure mid-storm scrapes land
		Logf:            t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckInvariants(); err != nil {
		t.Errorf("clean storm violated invariants: %v", err)
	}
	if res.StatusCounts[200] == 0 {
		t.Errorf("no 200s recorded: %v", res.StatusCounts)
	}
	if res.ServerMetrics == nil || res.ServerChunks == 0 {
		t.Errorf("final reconcile scrape missing: chunks=%d", res.ServerChunks)
	}
	if res.ServerChunks != res.DistinctAckedChunks {
		t.Errorf("server chunks %d != distinct acked %d", res.ServerChunks, res.DistinctAckedChunks)
	}
	if res.NetErrors != 0 {
		t.Errorf("fault-free storm saw %d net errors", res.NetErrors)
	}
	if res.FramesPerSec <= 0 || res.P99Latency <= 0 || res.PeakRSSBytes <= 0 {
		t.Errorf("metrics not populated: fps=%v p99=%v rss=%v",
			res.FramesPerSec, res.P99Latency, res.PeakRSSBytes)
	}
	waitGoroutines(t, baseline)
}

// TestStormInvariants is the pinned storm: a ~200-device swarm with every
// fault type enabled, admission control and rate limiting squeezing the
// collector, per-request deadlines shedding slow-loris writes, idle
// eviction reclaiming sessions mid-storm, and one hard kill-and-restart
// while uploads are in flight. The collector must degrade gracefully:
// documented statuses only, every sink drains, the recovered /fleet is
// byte-identical to a fault-free reference over the same acked chunks,
// and no sessions or goroutines leak.
func TestStormInvariants(t *testing.T) {
	devices := 200
	if testing.Short() {
		devices = 120
	}
	baseline := runtime.NumGoroutine()
	res, err := Run(Options{
		Devices:         devices,
		FramesPerDevice: 2,
		Faults:          AllFaults(),
		Seed:            42,
		Collector: ingest.ServerOptions{
			DataDir:     t.TempDir(),
			MaxSessions: 64,
			// The chunk rate is per device: burst 1 at 5/s means a device's
			// back-to-back chunks trip a 429 and must honor Retry-After.
			MaxChunksPerSec: 5,
			ChunkBurst:      1,
			IdleTimeout:     250 * time.Millisecond,
			ReadTimeout:     150 * time.Millisecond,
			WriteTimeout:    time.Second,
		},
		KillAfterChunks: 100,
		Stragglers:      0.05,
		StallFor:        300 * time.Millisecond,
		Logf:            t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("storm result: %d frames in %v (%.0f frames/s), p99 %v, rss %d MiB",
		res.Frames, res.Elapsed.Round(time.Millisecond), res.FramesPerSec,
		res.P99Latency.Round(time.Microsecond), res.PeakRSSBytes>>20)
	t.Logf("statuses: %v; faults: %v; net errors: %d; acked: %d",
		res.StatusCounts, res.FaultsInjected, res.NetErrors, res.AckedChunks)
	t.Logf("restarts: %d; evictions: %d; resurrections: %d; recovered: %d sessions / %d chunks",
		res.Restarts, res.Evictions, res.Resurrections, res.RecoveredSessions, res.RecoveredChunks)

	if err := res.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if res.Restarts != 1 {
		t.Errorf("restarts = %d, want exactly 1 mid-storm kill", res.Restarts)
	}
	for _, fault := range []string{
		faultDisconnect, faultSlowLoris, faultCorrupt,
		faultDropResponse, faultDuplicate, faultReplayStale,
	} {
		if res.FaultsInjected[fault] == 0 {
			t.Errorf("fault %q never fired — the storm did not exercise it", fault)
		}
	}
	if res.StatusCounts[429] == 0 {
		t.Error("no 429s — the rate limiter never engaged under swarm load")
	}
	if res.StatusCounts[503] == 0 {
		t.Error("no 503s — the session cap never engaged under swarm load")
	}
	if res.RecoveredChunks == 0 {
		t.Error("final recovery replayed no chunks — the durability leg never ran")
	}
	if res.Evictions == 0 {
		t.Error("no sessions were evicted — idle eviction never engaged under cap pressure")
	}
	if res.ScrapeSamples == 0 {
		t.Error("the /metrics scrape loop never sampled a multi-second storm")
	}
	if res.ServerMetrics == nil || res.ServerChunks == 0 {
		t.Errorf("final reconcile scrape missing: chunks=%d", res.ServerChunks)
	}
	waitGoroutines(t, baseline)
}

// TestStormShardedInvariants drives the consistent-hash ring end to end
// under fire: a 4-shard collector ring behind the aggregator gateway, every
// fault type enabled, WAL segment rotation on, and a mid-storm hard kill of
// shard 0 while the other three keep serving. The bar is the same as the
// single-collector storm — documented statuses only (502 now included: the
// gateway's dead-shard answer), every sink drains, and the gateway's merged
// /fleet after per-shard WAL recovery is byte-identical to a fault-free
// single collector folding the same acked chunks.
func TestStormShardedInvariants(t *testing.T) {
	devices := 64
	if testing.Short() {
		devices = 48
	}
	baseline := runtime.NumGoroutine()
	res, err := Run(Options{
		Devices:         devices,
		FramesPerDevice: 2,
		Faults:          AllFaults(),
		Seed:            42,
		Shards:          4,
		Collector: ingest.ServerOptions{
			DataDir:      t.TempDir(),
			SegmentBytes: 4096, // rotation + compaction under fire
			IdleTimeout:  250 * time.Millisecond,
			ReadTimeout:  150 * time.Millisecond,
			WriteTimeout: time.Second,
		},
		KillAfterChunks: 40,
		Stragglers:      0.05,
		StallFor:        300 * time.Millisecond,
		Logf:            t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("sharded storm: %d frames in %v (%.0f frames/s) across %d shards, p99 %v",
		res.Frames, res.Elapsed.Round(time.Millisecond), res.FramesPerSec, res.Shards,
		res.P99Latency.Round(time.Microsecond))
	t.Logf("statuses: %v; faults: %v; recovered: %d sessions / %d chunks",
		res.StatusCounts, res.FaultsInjected, res.RecoveredSessions, res.RecoveredChunks)

	if err := res.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if res.Shards != 4 {
		t.Errorf("result shards = %d, want 4", res.Shards)
	}
	if res.Restarts != 1 {
		t.Errorf("restarts = %d, want exactly 1 mid-storm shard kill", res.Restarts)
	}
	if res.RecoveredChunks == 0 {
		t.Error("final recovery replayed no chunks — per-shard WAL recovery never ran")
	}
	if res.RecoveredSessions == 0 {
		t.Error("final recovery restored no sessions")
	}
	if len(res.LatencyHist) == 0 {
		t.Error("no latency histogram recorded")
	}
	if res.ScrapeSamples == 0 {
		t.Error("the /metrics scrape loop never sampled the sharded storm")
	}
	if res.ServerMetrics == nil {
		t.Fatal("final reconcile scrape missing")
	}
	if res.ServerChunks != res.DistinctAckedChunks {
		t.Errorf("post-recovery shard counters %d != distinct acked %d",
			res.ServerChunks, res.DistinctAckedChunks)
	}
	waitGoroutines(t, baseline)
}

// TestLatencyHistogram pins the time-bucketed latency summary: samples land
// in their completion window, the drain tail clamps into the last bucket,
// and per-bucket quantiles are computed over that window alone.
func TestLatencyHistogram(t *testing.T) {
	if latencyHistogram(nil, nil, time.Second, 8) != nil {
		t.Error("empty histogram not nil")
	}
	offsets := []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, // bucket 0
		150 * time.Millisecond, // bucket 1
		999 * time.Millisecond, // past elapsed: clamps to last bucket
	}
	lats := []time.Duration{
		1 * time.Millisecond, 3 * time.Millisecond,
		50 * time.Millisecond,
		7 * time.Millisecond,
	}
	hist := latencyHistogram(offsets, lats, 800*time.Millisecond, 8)
	if len(hist) != 8 {
		t.Fatalf("got %d buckets, want 8", len(hist))
	}
	if hist[0].Count != 2 || hist[0].MaxNs != (3*time.Millisecond).Nanoseconds() {
		t.Errorf("bucket 0 = %+v, want 2 samples max 3ms", hist[0])
	}
	if hist[0].StartMs != 0 || hist[0].EndMs != 100 {
		t.Errorf("bucket 0 window = [%d, %d)ms, want [0, 100)", hist[0].StartMs, hist[0].EndMs)
	}
	if hist[1].Count != 1 || hist[1].P99Ns != (50*time.Millisecond).Nanoseconds() {
		t.Errorf("bucket 1 = %+v, want the 50ms sample", hist[1])
	}
	if hist[7].Count != 1 || hist[7].MaxNs != (7*time.Millisecond).Nanoseconds() {
		t.Errorf("last bucket = %+v, want the clamped drain-tail sample", hist[7])
	}
	total := 0
	for _, b := range hist {
		total += b.Count
	}
	if total != len(lats) {
		t.Errorf("histogram holds %d samples, want %d", total, len(lats))
	}
}

// TestHistQuantileNs pins the bucketed quantile read-back: the storm's
// latency summaries share obs.LatencyBounds with the collectors'
// exposition histograms, and a sample sitting exactly on a bound must
// come back as that bound in nanoseconds with no float drift.
func TestHistQuantileNs(t *testing.T) {
	h := obs.NewHistogram(obs.LatencyBounds())
	if got := histQuantileNs(h, 0.99); got != 0 {
		t.Errorf("empty histogram p99 = %d, want 0", got)
	}
	h.Observe(0.05) // exactly the 50ms bound
	if got := histQuantileNs(h, 0.99); got != (50 * time.Millisecond).Nanoseconds() {
		t.Errorf("p99 = %dns, want exactly 50ms", got)
	}
}

// TestCheckInvariantsReportsAll pins the verdict wording for each failure.
func TestCheckInvariantsReportsAll(t *testing.T) {
	r := &Result{
		UndocumentedStatuses: []int{418},
		SinkErrors:           []string{"dev-0001: boom"},
		LeakedSessions:       2,
		RefReplayRejects:     1,
		FleetLive:            []byte("a"),
		FleetRef:             []byte("b"),
	}
	err := r.CheckInvariants()
	if err == nil {
		t.Fatal("broken result passed")
	}
	for _, want := range []string{"418", "drain", "leaked", "reference replay", "differs"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("verdict missing %q: %v", want, err)
		}
	}
	if (&Result{}).CheckInvariants() != nil {
		t.Error("clean result failed")
	}

	// The reconcile pillar: counter drift is a violation on its own...
	drifted := &Result{
		ServerMetrics:       map[string]float64{"mlexray_ingest_chunks_total": 3},
		ServerChunks:        3,
		DistinctAckedChunks: 4,
	}
	if err := drifted.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "reconcile") {
		t.Errorf("counter drift not reported: %v", err)
	}
	// ...but only when every sink drained (a given-up sink legitimately
	// leaves server-logged chunks no client acked) and the scrape ran.
	drifted.SinkErrors = []string{"dev-0001: gave up"}
	if err := drifted.CheckInvariants(); err != nil && strings.Contains(err.Error(), "reconcile") {
		t.Errorf("reconcile reported despite undrained sinks: %v", err)
	}
	unscraped := &Result{DistinctAckedChunks: 4}
	if err := unscraped.CheckInvariants(); err != nil {
		t.Errorf("reconcile reported without a scrape: %v", err)
	}
}
