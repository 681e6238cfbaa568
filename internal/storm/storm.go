// Package storm is the collector's hostile-load harness: a synthetic
// device swarm that drives a live ingest.Server through real RemoteSink
// uploads while a chaos transport damages the traffic — mid-chunk
// disconnects, slow-loris writes, lost responses, duplicated and reordered
// retries, corrupt bytes — and the collector itself is killed and
// restarted mid-storm. The harness does not hope the collector degrades
// gracefully; it checks:
//
//   - every POST /ingest response carries a documented status
//     (200/400/409/413/429/500/503, plus 502 from the sharding gateway),
//   - every chunk acked with 200 survives crash recovery byte-exactly
//     (the recovered /fleet equals a fault-free reference run folding the
//     same acked chunks, byte for byte),
//   - throttled and capped sinks eventually drain once pressure lifts
//     (no sink finishes with a sticky error),
//   - no sessions leak after the storm (idle eviction frees every slot,
//     with the WAL keeping the data recoverable).
//
// Run also measures the collector under fire: sustained frames/sec, p99
// ingest latency, peak process RSS, and the full status histogram — the
// numbers the bench suite records into BENCH_replay.json.
package storm

import (
	"bytes"
	"fmt"
	"io"
	"math"
	mrand "math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mlexray/internal/core"
	"mlexray/internal/httpx"
	"mlexray/internal/ingest"
	"mlexray/internal/obs"
	"mlexray/internal/shard"
)

// Options sizes and shapes one storm.
type Options struct {
	// Devices is the swarm size; <= 0 means 32. Devices arrive in bursty
	// waves with jitter, with heterogeneous profiles (chunk size, log
	// format, gzip on/off).
	Devices int
	// FramesPerDevice is each device's shard of the fleet reference;
	// <= 0 means 4.
	FramesPerDevice int
	// Faults configures the chaos transport (zero value: no faults).
	Faults Faults
	// Seed makes the swarm's randomness reproducible; 0 means 1.
	Seed uint64
	// Shards > 1 runs a consistent-hash ring of that many collector shards
	// behind an in-process gateway: devices upload through the gateway, the
	// kill act takes down one shard (not the whole fleet), and the final
	// /fleet is the gateway's merged report — pinned byte-identical to the
	// fault-free single-collector reference. <= 1 means one collector, no
	// gateway.
	Shards int
	// Collector configures the collector(s) under storm: admission control,
	// eviction, per-request deadlines (what sheds the slow-loris uploads),
	// WAL rotation. DataDir is required for KillAfterChunks and IdleTimeout
	// — both destroy in-memory state that only a WAL can bring back; with
	// Shards > 1 each shard gets its own shard-<i> subdirectory of it. Run
	// sets Ref (the synthetic fleet reference) and a 1-second session
	// Retry-After itself.
	Collector ingest.ServerOptions
	// KillAfterChunks hard-kills and restarts the collector once that many
	// chunks have been acked mid-storm; 0 means no mid-storm kill.
	KillAfterChunks int
	// Stragglers is the fraction of devices that stall mid-stream for
	// StallFor (default 300ms) before finishing.
	Stragglers float64
	StallFor   time.Duration
	// SinkMaxElapsed is each device sink's total retry budget; <= 0 means
	// 90s — generous enough to ride out restarts and admission waves.
	SinkMaxElapsed time.Duration
	// ScrapeEvery is the in-storm /metrics sampling period: a scrape loop
	// polls every collector's (and the gateway's) exposition while the
	// swarm runs, folding the server-side view into the result next to
	// the recorder's client-side one. 0 means 250ms; negative disables
	// scraping (ServerMetrics stays nil and the reconcile invariant is
	// skipped).
	ScrapeEvery time.Duration
	// Logf, when set, narrates the storm's acts (test logging).
	Logf func(format string, args ...any)
}

// Result is what one storm observed and measured.
type Result struct {
	Devices int           `json:"devices"`
	Frames  int           `json:"frames"`
	Elapsed time.Duration `json:"elapsed_ns"`
	// FramesPerSec is the sustained ingest rate over the storm (all frames
	// acked / wall time, faults and restarts included).
	FramesPerSec float64 `json:"frames_per_sec"`
	// P99Latency is the 99th-percentile clean ingest round-trip.
	P99Latency time.Duration `json:"p99_latency_ns"`
	// LatencyHist buckets ingest latency over storm time (8 equal windows):
	// the restart stall, admission waves and drain tail stay visible instead
	// of averaging into one quantile.
	LatencyHist []LatencyBucket `json:"latency_hist,omitempty"`
	// Shards is the collector topology the storm ran (1 = no gateway).
	Shards int `json:"shards"`
	// PeakRSSBytes is the process's peak resident set (collector and swarm
	// share the process; the collector dominates).
	PeakRSSBytes int64 `json:"peak_rss_bytes"`
	// StatusCounts is the full POST /ingest status histogram, server-side.
	StatusCounts map[int]int `json:"status_counts"`
	// UndocumentedStatuses lists observed statuses outside the documented
	// set {200, 400, 409, 413, 429, 500, 503} — must be empty.
	UndocumentedStatuses []int `json:"undocumented_statuses,omitempty"`
	// FaultsInjected counts chaos injections by fault name.
	FaultsInjected map[string]int `json:"faults_injected"`
	// NetErrors counts client-visible transport errors (injected + real).
	NetErrors int `json:"net_errors"`
	// AckedChunks counts 200 acks (duplicate acks included).
	AckedChunks int `json:"acked_chunks"`
	// Restarts counts mid-storm collector kill/restart cycles (the final
	// recovery restart in durable mode is not counted).
	Restarts int `json:"restarts"`
	// Evictions/Resurrections are the final collector instance's counters.
	Evictions     int `json:"evictions"`
	Resurrections int `json:"resurrections"`
	// LeakedSessions is how many sessions survived the post-storm eviction
	// drain — must be 0 when IdleTimeout is set.
	LeakedSessions int `json:"leaked_sessions"`
	// SinkErrors holds per-device sticky sink failures — must be empty
	// (throttled/capped sinks must eventually drain).
	SinkErrors []string `json:"sink_errors,omitempty"`
	// RecoveredSessions/RecoveredChunks report the final restart's WAL
	// replay (durable mode).
	RecoveredSessions int `json:"recovered_sessions"`
	RecoveredChunks   int `json:"recovered_chunks"`
	// RefReplayRejects counts acked chunks the fault-free reference server
	// did not ack on replay — must be 0.
	RefReplayRejects int `json:"ref_replay_rejects"`
	// ScrapeSamples counts successful in-storm /metrics scrape rounds.
	ScrapeSamples int `json:"scrape_samples"`
	// ServerMetrics is the final post-recovery /metrics scrape, summed
	// across every shard (nil when scraping is disabled) — the collector
	// fleet's own account of the storm.
	ServerMetrics map[string]float64 `json:"server_metrics,omitempty"`
	// ServerChunks is mlexray_ingest_chunks_total out of ServerMetrics:
	// the chunks the collectors say they applied.
	ServerChunks int `json:"server_chunks"`
	// DistinctAckedChunks is the recorder's distinct (device, stream,
	// chunk) acked set — what ServerChunks must reconcile with: a chunk
	// the server acked must be counted applied exactly once, across every
	// retry, duplicate, eviction and restart.
	DistinctAckedChunks int `json:"distinct_acked_chunks"`
	// FleetLive is the recovered collector's /fleet body; FleetRef is the
	// fault-free reference server's /fleet over the same acked chunks.
	// The invariant is FleetLive == FleetRef, byte for byte.
	FleetLive []byte `json:"-"`
	FleetRef  []byte `json:"-"`
}

// documentedStatuses is the collector's public POST /ingest status
// contract. 502 is the gateway's addition: the owning shard is unreachable
// (killed mid-storm) — transient by definition, so sinks retry it like any
// 5xx.
var documentedStatuses = map[int]bool{
	http.StatusOK:                    true,
	http.StatusBadRequest:            true,
	http.StatusConflict:              true,
	http.StatusRequestEntityTooLarge: true,
	http.StatusTooManyRequests:       true,
	http.StatusInternalServerError:   true,
	http.StatusBadGateway:            true,
	http.StatusServiceUnavailable:    true,
}

// LatencyBucket is one time window of the storm's ingest-latency history.
type LatencyBucket struct {
	StartMs int64 `json:"start_ms"`
	EndMs   int64 `json:"end_ms"`
	Count   int   `json:"count"`
	P50Ns   int64 `json:"p50_ns"`
	P99Ns   int64 `json:"p99_ns"`
	MaxNs   int64 `json:"max_ns"`
}

// latencyHistogram splits [0, elapsed) into n equal windows and summarizes
// the latency samples completing in each; samples past elapsed (drain tail)
// land in the last bucket. The per-window quantiles come from an
// obs.Histogram over obs.LatencyBounds — the same log-spaced buckets the
// collectors' own /metrics latency histograms use, so the client-side and
// server-side views of one storm bucket identically (maxima stay exact
// from the raw samples; a bucketed histogram cannot produce them).
func latencyHistogram(offsets, lats []time.Duration, elapsed time.Duration, n int) []LatencyBucket {
	if len(lats) == 0 || elapsed <= 0 || n <= 0 {
		return nil
	}
	width := elapsed / time.Duration(n)
	if width <= 0 {
		width = 1
	}
	hists := make([]*obs.Histogram, n)
	maxes := make([]time.Duration, n)
	counts := make([]int, n)
	for i, off := range offsets {
		b := int(off / width)
		if b < 0 {
			b = 0
		}
		if b >= n {
			b = n - 1
		}
		if hists[b] == nil {
			hists[b] = obs.NewHistogram(obs.LatencyBounds())
		}
		hists[b].Observe(lats[i].Seconds())
		counts[b]++
		if lats[i] > maxes[b] {
			maxes[b] = lats[i]
		}
	}
	out := make([]LatencyBucket, 0, n)
	for b := 0; b < n; b++ {
		lb := LatencyBucket{
			StartMs: (time.Duration(b) * width).Milliseconds(),
			EndMs:   (time.Duration(b+1) * width).Milliseconds(),
			Count:   counts[b],
		}
		if counts[b] > 0 {
			lb.P50Ns = histQuantileNs(hists[b], 0.50)
			lb.P99Ns = histQuantileNs(hists[b], 0.99)
			lb.MaxNs = maxes[b].Nanoseconds()
		}
		out = append(out, lb)
	}
	return out
}

// histQuantileNs reads a bucketed quantile back out in nanoseconds.
func histQuantileNs(h *obs.Histogram, q float64) int64 {
	return int64(math.Round(h.Quantile(q) * 1e9))
}

// CheckInvariants returns the storm's graceful-degradation verdict: nil
// when every robustness invariant held.
func (r *Result) CheckInvariants() error {
	var problems []string
	if len(r.UndocumentedStatuses) > 0 {
		problems = append(problems, fmt.Sprintf("undocumented statuses observed: %v", r.UndocumentedStatuses))
	}
	if len(r.SinkErrors) > 0 {
		problems = append(problems, fmt.Sprintf("%d sinks failed to drain: %s", len(r.SinkErrors), r.SinkErrors[0]))
	}
	if r.LeakedSessions > 0 {
		problems = append(problems, fmt.Sprintf("%d sessions leaked past the eviction drain", r.LeakedSessions))
	}
	if r.RefReplayRejects > 0 {
		problems = append(problems, fmt.Sprintf("%d acked chunks rejected by the fault-free reference replay", r.RefReplayRejects))
	}
	if !bytes.Equal(r.FleetLive, r.FleetRef) {
		problems = append(problems, "recovered /fleet differs from the fault-free reference over the same acked chunks")
	}
	// The observability pillar: the server's own telemetry must agree with
	// what the clients saw. Only meaningful when the final scrape ran and
	// every sink drained — a given-up sink leaves chunks the server logged
	// but no client acked, which is degradation, not a counting bug.
	if r.ServerMetrics != nil && len(r.SinkErrors) == 0 && r.ServerChunks != r.DistinctAckedChunks {
		problems = append(problems, fmt.Sprintf(
			"server-reported chunk counters do not reconcile with client acks: mlexray_ingest_chunks_total=%d, distinct acked chunks=%d",
			r.ServerChunks, r.DistinctAckedChunks))
	}
	if len(problems) == 0 {
		return nil
	}
	return fmt.Errorf("storm invariants violated: %s", strings.Join(problems, "; "))
}

// ackedChunk is one 200-acked upload as the server saw it: the upload
// headers plus the exact wire bytes the handler consumed.
type ackedChunk struct {
	up   httpx.Upload
	body []byte
}

// teeBody lets the recorder capture exactly the bytes the handler read,
// without consuming the body itself (which would defeat the collector's
// read deadline — the slow-loris bytes must trickle into the handler).
type teeBody struct {
	io.Reader
	io.Closer
}

// recorder wraps the live collector handler, recording the authoritative
// server-side view: the status of every POST /ingest and, for each 200,
// the acked chunk's headers and exact bytes in per-device completion
// order. The inner handler swaps across collector restarts; the record
// spans them.
type recorder struct {
	mu     sync.Mutex
	inner  http.Handler
	status map[int]int
	acked  map[string][]ackedChunk
	ackedN int
}

func newRecorder() *recorder {
	return &recorder{status: make(map[int]int), acked: make(map[string][]ackedChunk)}
}

func (rec *recorder) setInner(h http.Handler) {
	rec.mu.Lock()
	rec.inner = h
	rec.mu.Unlock()
}

func (rec *recorder) ackedCount() int {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return rec.ackedN
}

func (rec *recorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec.mu.Lock()
	inner := rec.inner
	rec.mu.Unlock()
	isIngest := r.Method == http.MethodPost && r.URL.Path == "/ingest"
	if !isIngest {
		inner.ServeHTTP(w, r)
		return
	}
	var buf bytes.Buffer
	r.Body = teeBody{Reader: io.TeeReader(r.Body, &buf), Closer: r.Body}
	sw := httpx.CaptureStatus(w)
	inner.ServeHTTP(sw, r)
	rec.mu.Lock()
	rec.status[sw.Status()]++
	if sw.Status() == http.StatusOK {
		up, _ := httpx.ParseUpload(r) // a 200 means the collector parsed them
		rec.acked[up.Device] = append(rec.acked[up.Device], ackedChunk{up: up, body: bytes.Clone(buf.Bytes())})
		rec.ackedN++
	}
	rec.mu.Unlock()
}

// liveServer is one listening http.Server the storm can hard-close.
type liveServer struct {
	hs   *http.Server
	addr string
	done chan struct{}
}

// serveOn starts h on addr ("" picks an ephemeral port). A pinned address
// may still be held by the incarnation just killed, so the listen retries.
func serveOn(addr string, h http.Handler) (*liveServer, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var ln net.Listener
	var err error
	for i := 0; ; i++ {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if i >= 200 {
			return nil, fmt.Errorf("storm: relisten on %s: %w", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	l := &liveServer{
		hs:   &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second},
		addr: ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		l.hs.Serve(ln)
		close(l.done)
	}()
	return l, nil
}

// close cuts every connection, in-flight uploads included, and waits for
// the accept loop to exit.
func (l *liveServer) close() {
	l.hs.Close()
	<-l.done
}

// collector owns one live ingest.Server incarnation: start boots it
// (reusing the pinned address across restarts), kill hard-closes the HTTP
// server and the WAL — in-flight uploads are cut, exactly like a crash,
// except that acked appends are always either fully durable or 503'd (the
// ingest.Server close barrier). With rec set the recorder fronts the
// collector directly (single-collector storms); sharded storms leave rec
// nil and put the recorder in front of the gateway instead.
type collector struct {
	opts ingest.ServerOptions
	rec  *recorder
	addr string

	mu   sync.Mutex // guards srv/live: the killer swaps them mid-storm while the scrape loop reads
	srv  *ingest.Server
	live *liveServer
}

// server returns the current incarnation. The scrape loop must go through
// this — the killer replaces c.srv concurrently. (Between kill and restart
// it can hand back a closed server; GET /metrics still answers from the
// dead incarnation's registry, which is exactly the pre-crash view.)
func (c *collector) server() *ingest.Server {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.srv
}

func (c *collector) start() error {
	srv, err := ingest.NewServer(c.opts)
	if err != nil {
		return err
	}
	handler := http.Handler(srv)
	if c.rec != nil {
		c.rec.setInner(srv)
		handler = c.rec
	}
	live, err := serveOn(c.addr, handler)
	if err != nil {
		return err
	}
	c.addr = live.addr
	c.mu.Lock()
	c.srv, c.live = srv, live
	c.mu.Unlock()
	return nil
}

func (c *collector) kill() {
	c.mu.Lock()
	live, srv := c.live, c.srv
	c.mu.Unlock()
	live.close()
	srv.Close()
}

// peakRSSBytes reads the process's resident-set high-water mark (VmHWM)
// from /proc; off Linux it falls back to the Go runtime's Sys estimate.
func peakRSSBytes() int64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				if kb, err := strconv.ParseInt(fields[1], 10, 64); err == nil {
					return kb * 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.Sys)
}

// Run executes one storm end to end and returns what it observed. The
// returned error covers harness failures (could not boot the collector);
// invariant verdicts live in Result.CheckInvariants, so a failing storm
// still hands back its full evidence.
func Run(opts Options) (*Result, error) {
	if opts.Devices <= 0 {
		opts.Devices = 32
	}
	if opts.FramesPerDevice <= 0 {
		opts.FramesPerDevice = 4
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.StallFor <= 0 {
		opts.StallFor = 300 * time.Millisecond
	}
	if opts.SinkMaxElapsed <= 0 {
		opts.SinkMaxElapsed = 90 * time.Second
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if opts.Collector.DataDir == "" && (opts.KillAfterChunks > 0 || opts.Collector.IdleTimeout > 0) {
		return nil, fmt.Errorf("storm: kill/restart and idle eviction require DataDir — recovery needs a WAL")
	}

	nShards := opts.Shards
	if nShards < 1 {
		nShards = 1
	}
	frames := opts.Devices * opts.FramesPerDevice
	ref := refLog(frames)
	rec := newRecorder()
	opts.Collector.Ref = ref
	opts.Collector.SessionRetryAfterSecs = 1
	// Topology: one recorder-fronted collector, or a ring of collectors
	// behind a recorder-fronted gateway. Either way the recorder sees every
	// client-visible status and every acked chunk's exact bytes, and the
	// collectors keep pinned addresses across restarts so the ring's URLs
	// stay valid through the kill act.
	var cols []*collector
	var gw *shard.Gateway
	var gwLive *liveServer
	targetAddr := ""
	if nShards == 1 {
		col := &collector{rec: rec, opts: opts.Collector}
		if err := col.start(); err != nil {
			return nil, err
		}
		cols = []*collector{col}
		targetAddr = col.addr
	} else {
		var addrs []shard.ShardAddr
		for i := 0; i < nShards; i++ {
			c := &collector{opts: opts.Collector}
			if opts.Collector.DataDir != "" {
				c.opts.DataDir = filepath.Join(opts.Collector.DataDir, fmt.Sprintf("shard-%d", i))
			}
			if err := c.start(); err != nil {
				return nil, err
			}
			cols = append(cols, c)
			addrs = append(addrs, shard.ShardAddr{Name: fmt.Sprintf("shard-%d", i), URL: "http://" + c.addr})
		}
		gwTransport := &http.Transport{MaxIdleConnsPerHost: 64}
		defer gwTransport.CloseIdleConnections()
		var err error
		gw, err = shard.NewGateway(shard.GatewayOptions{
			Shards: addrs,
			Client: &http.Client{Transport: gwTransport},
		})
		if err != nil {
			return nil, err
		}
		rec.setInner(gw)
		if gwLive, err = serveOn("", rec); err != nil {
			return nil, err
		}
		targetAddr = gwLive.addr
	}
	logf("storm: %d shard(s) behind %s, %d devices x %d frames",
		nShards, targetAddr, opts.Devices, opts.FramesPerDevice)

	met := newStormMetrics()
	baseTransport := &http.Transport{MaxIdleConnsPerHost: 64}
	defer baseTransport.CloseIdleConnections()

	// The kill act: once enough chunks are acked, hard-kill a collector
	// mid-storm and restart it on the same address. In a sharded storm the
	// victim is shard 0 — the rest of the ring keeps serving while the
	// gateway answers 502 for the dead shard's devices and their sinks
	// retry. In-flight uploads see cut connections; recovery replays the
	// WAL.
	killerDone := make(chan struct{})
	stopKiller := make(chan struct{})
	restarts := 0
	var killerErr error
	if opts.KillAfterChunks > 0 {
		victim := cols[0]
		go func() {
			defer close(killerDone)
			for {
				select {
				case <-stopKiller:
					return
				default:
				}
				if rec.ackedCount() >= opts.KillAfterChunks {
					logf("storm: kill act at %d acked chunks", rec.ackedCount())
					victim.kill()
					if err := victim.start(); err != nil {
						killerErr = err
						return
					}
					restarts++
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
	} else {
		close(killerDone)
	}

	// The scrape loop: while the swarm runs, poll every collector's (and the
	// gateway's) /metrics in process, exactly as an external Prometheus
	// would over HTTP. Its job is interference detection — exposition must
	// stay parseable and cheap under full ingest load, crash/restart churn
	// included. The final reconcile scrape below is separate: it reads the
	// post-recovery counters this loop never sees.
	scrapeEvery := opts.ScrapeEvery
	if scrapeEvery == 0 {
		scrapeEvery = 250 * time.Millisecond
	}
	scrapeSamples := 0 // scraper-goroutine-only until scraperDone closes
	stopScraper := make(chan struct{})
	scraperDone := make(chan struct{})
	if scrapeEvery > 0 {
		go func() {
			defer close(scraperDone)
			tick := time.NewTicker(scrapeEvery)
			defer tick.Stop()
			for {
				select {
				case <-stopScraper:
					return
				case <-tick.C:
				}
				ok := true
				for _, c := range cols {
					if code, body := httpx.Get(c.server(), "/metrics"); code != http.StatusOK {
						ok = false
					} else if _, err := obs.ParseText(body); err != nil {
						ok = false
					}
				}
				if gw != nil {
					if code, _ := httpx.Get(gw, "/metrics"); code != http.StatusOK {
						ok = false
					}
				}
				if ok {
					scrapeSamples++
				}
			}
		}()
	} else {
		close(scraperDone)
	}

	// The swarm: heterogeneous profiles, bursty waves, stragglers.
	start := time.Now()
	var wg sync.WaitGroup
	sinkErrs := make([]string, opts.Devices)
	formats := []core.LogFormat{core.FormatBinary, core.FormatJSONL}
	for d := 0; d < opts.Devices; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			rng := mrand.New(mrand.NewPCG(opts.Seed, uint64(d)))
			wave := time.Duration(d/16) * 25 * time.Millisecond
			time.Sleep(wave + time.Duration(rng.IntN(10))*time.Millisecond)
			tr := &chaosTransport{base: baseTransport, faults: opts.Faults, rng: rng, met: met}
			sink, err := ingest.NewRemoteSink(ingest.SinkOptions{
				URL:          "http://" + targetAddr,
				Device:       deviceName(d),
				Format:       formats[d%2],
				Gzip:         d%3 == 0,
				ChunkBytes:   256 << (d % 3),
				MaxRetries:   10000,
				RetryBackoff: 5 * time.Millisecond,
				MaxElapsed:   opts.SinkMaxElapsed,
				Client:       &http.Client{Transport: tr, Timeout: 30 * time.Second},
			})
			if err != nil {
				sinkErrs[d] = err.Error()
				return
			}
			lo, hi := deviceFrames(d, opts.Devices, frames)
			recs := synthFrames(lo, hi)
			straggler := rng.Float64() < opts.Stragglers
			sent, startIdx := 0, 0
			for startIdx < len(recs) {
				end := startIdx
				for end < len(recs) && recs[end].Frame == recs[startIdx].Frame {
					end++
				}
				if err := sink.WriteFrame(recs[startIdx].Frame, recs[startIdx:end]); err != nil {
					sinkErrs[d] = err.Error()
					return
				}
				sent++
				if straggler && sent == (hi-lo)/2+1 {
					time.Sleep(opts.StallFor)
				}
				if p := rng.IntN(3); p > 0 {
					time.Sleep(time.Duration(p) * time.Millisecond)
				}
				startIdx = end
			}
			if err := sink.Flush(); err != nil {
				sinkErrs[d] = err.Error()
			}
		}(d)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stopKiller)
	<-killerDone
	close(stopScraper)
	<-scraperDone
	if killerErr != nil {
		return nil, killerErr
	}
	logf("storm: swarm drained in %v (%d acked chunks)", elapsed.Round(time.Millisecond), rec.ackedCount())

	res := &Result{
		Devices:      opts.Devices,
		Frames:       frames,
		Elapsed:      elapsed,
		FramesPerSec: float64(frames) / elapsed.Seconds(),
		Restarts:     restarts,
		NetErrors:    met.netErrors,
		Shards:       nShards,
	}
	res.ScrapeSamples = scrapeSamples
	for _, e := range sinkErrs {
		if e != "" {
			res.SinkErrors = append(res.SinkErrors, e)
		}
	}

	// Session-leak drain: with eviction on, pressure has lifted, so every
	// slot (on every shard) must free once the idle horizon passes — the
	// data stays in the WAL for the final recovery below.
	if idle := opts.Collector.IdleTimeout; idle > 0 {
		deadline := time.Now().Add(10*time.Second + 10*idle)
		for {
			left := 0
			for _, c := range cols {
				c.srv.EvictIdle()
				left += len(c.srv.Devices())
			}
			if left == 0 || time.Now().After(deadline) {
				res.LeakedSessions = left
				break
			}
			time.Sleep(idle / 4)
		}
	}
	for _, c := range cols {
		res.Evictions += c.srv.Evictions()
		res.Resurrections += c.srv.Resurrections()
	}

	// Final crash recovery: every shard dies and comes back; everything the
	// storm acked must return from the per-shard WALs.
	if opts.Collector.DataDir != "" {
		for _, c := range cols {
			c.kill()
			if err := c.start(); err != nil {
				return nil, err
			}
			rs := c.srv.Recovery()
			res.RecoveredSessions += rs.Sessions
			res.RecoveredChunks += rs.Chunks
		}
		logf("storm: final recovery: %d sessions, %d chunks across %d shard(s)",
			res.RecoveredSessions, res.RecoveredChunks, nShards)
	}
	// The live fleet verdict: the gateway's merged report in sharded mode
	// (fanned out over the recovered shards), the collector's own /fleet
	// otherwise.
	var code int
	var body []byte
	if gw != nil {
		code, body = httpx.Get(gw, "/fleet")
	} else {
		code, body = httpx.Get(cols[0].srv, "/fleet")
	}
	shutdown := func() {
		for _, c := range cols {
			c.kill()
		}
		if gwLive != nil {
			gwLive.close()
		}
	}
	if code != http.StatusOK {
		shutdown()
		return nil, fmt.Errorf("storm: /fleet after recovery: %d: %s", code, body)
	}
	res.FleetLive = body

	// The reconcile scrape: after the final kill/restart every durable
	// shard's counters were rebuilt purely from WAL replay, so each distinct
	// logged chunk was counted exactly once — any mid-storm resurrection
	// double-counting died with the pre-crash registry. (Without a DataDir
	// nothing ever restarts, so the live counters are equally clean.)
	// Summed across shards, mlexray_ingest_chunks_total must equal the
	// recorder's distinct acked set; CheckInvariants holds the two up
	// against each other.
	if scrapeEvery > 0 {
		merged := make(map[string]float64)
		for _, c := range cols {
			code, text := httpx.Get(c.srv, "/metrics")
			if code != http.StatusOK {
				shutdown()
				return nil, fmt.Errorf("storm: final /metrics scrape: %d: %s", code, text)
			}
			parsed, err := obs.ParseText(text)
			if err != nil {
				shutdown()
				return nil, fmt.Errorf("storm: final /metrics scrape: %w", err)
			}
			obs.MergeParsed(merged, parsed)
		}
		res.ServerMetrics = merged
		res.ServerChunks = int(obs.SumSeries(merged, "mlexray_ingest_chunks_total"))
	}
	shutdown()

	// The fault-free reference: a fresh in-memory collector fed exactly
	// the acked chunks, per device in ack order. Byte-equal /fleet is the
	// graceful-degradation bar — chaos may slow the storm, never skew it.
	// Every sink has returned (wg.Wait above), so the client-side
	// observations are final and need no lock.
	res.FaultsInjected = met.faults
	if len(met.latencies) > 0 {
		overall := obs.NewHistogram(obs.LatencyBounds())
		for _, l := range met.latencies {
			overall.Observe(l.Seconds())
		}
		res.P99Latency = time.Duration(histQuantileNs(overall, 0.99))
	}
	res.LatencyHist = latencyHistogram(met.offsets, met.latencies, elapsed, 8)

	rec.mu.Lock()
	res.StatusCounts = make(map[int]int, len(rec.status))
	for code, n := range rec.status {
		res.StatusCounts[code] = n
		if !documentedStatuses[code] {
			res.UndocumentedStatuses = append(res.UndocumentedStatuses, code)
		}
	}
	res.AckedChunks = rec.ackedN
	// Distinct (device, stream, chunk) keys: a chunk whose 200 the client
	// never saw (cut response) gets re-sent and re-acked, so the raw acked
	// list can hold the same logical chunk twice — the server counts it
	// once (duplicate-chunk path), and so must the reconcile side.
	distinct := make(map[string]struct{}, rec.ackedN)
	for dev, chunks := range rec.acked {
		for _, ch := range chunks {
			distinct[dev+"\x00"+ch.up.Stream+"\x00"+strconv.Itoa(ch.up.Chunk)] = struct{}{}
		}
	}
	res.DistinctAckedChunks = len(distinct)
	ackedDevices := make([]string, 0, len(rec.acked))
	for dev := range rec.acked {
		ackedDevices = append(ackedDevices, dev)
	}
	sort.Strings(ackedDevices)
	ackedByDevice := make(map[string][]ackedChunk, len(rec.acked))
	for dev, chunks := range rec.acked {
		ackedByDevice[dev] = chunks
	}
	rec.mu.Unlock()
	sort.Ints(res.UndocumentedStatuses)

	refSrv, err := ingest.NewServer(ingest.ServerOptions{Ref: ref})
	if err != nil {
		return nil, err
	}
	for _, dev := range ackedDevices {
		for _, ch := range ackedByDevice[dev] {
			req, err := http.NewRequest(http.MethodPost, "http://storm/ingest", bytes.NewReader(ch.body))
			if err != nil {
				return nil, err
			}
			ch.up.SetHeaders(req.Header)
			if code, _ := httpx.Do(refSrv, req); code != http.StatusOK {
				res.RefReplayRejects++
			}
		}
	}
	code, body = httpx.Get(refSrv, "/fleet")
	if code != http.StatusOK {
		return nil, fmt.Errorf("storm: reference /fleet: %d: %s", code, body)
	}
	res.FleetRef = body

	res.PeakRSSBytes = peakRSSBytes()
	return res, nil
}
