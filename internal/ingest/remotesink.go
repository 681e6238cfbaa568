package ingest

import (
	"bytes"
	"compress/gzip"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	mrand "math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"mlexray/internal/core"
	"mlexray/internal/httpx"
	"mlexray/internal/obs"
)

// SinkOptions configures a RemoteSink.
type SinkOptions struct {
	// URL is the collector base URL (e.g. "http://collector:9090"); the sink
	// posts to URL + "/ingest".
	URL string
	// Device is the stream's device ID — the server's session key.
	Device string
	// Format selects the chunk log encoding (FormatJSONL or FormatBinary).
	Format core.LogFormat
	// Gzip compresses each chunk (the server auto-detects either way).
	Gzip bool
	// ChunkBytes is the encoded-bytes threshold that ships a chunk; <= 0
	// means 1 MiB. Frames are never split: a chunk ships at the first frame
	// boundary past the threshold.
	ChunkBytes int
	// MaxRetries is how many times a failed POST is retried (network
	// errors, 5xx responses and 429 throttling; other 4xx fail immediately
	// — resending a rejected chunk cannot succeed). <= 0 means 4.
	MaxRetries int
	// RetryBackoff is the first retry's delay, doubling per attempt (with
	// jitter, capped at maxRetryWait); <= 0 means 250ms.
	RetryBackoff time.Duration
	// MaxElapsed caps the total time one chunk may spend retrying: once the
	// budget cannot cover the next wait, the upload fails with the last
	// error instead of sleeping again — a dead collector fails the sink in
	// bounded time. 0 means 2 minutes; negative means no budget (retry
	// until MaxRetries alone gives up).
	MaxElapsed time.Duration
	// Client overrides the HTTP client (tests, custom timeouts).
	Client *http.Client
	// Metrics registers client-side upload counters (chunks, retries,
	// redirects, give-ups, backoff sleep histogram) on the given registry.
	// Sinks sharing one registry share the series — a fleet's sinks fold
	// into one client-side view. Nil means no metrics.
	Metrics *obs.Registry
}

func (o *SinkOptions) chunkBytes() int {
	if o.ChunkBytes <= 0 {
		return 1 << 20
	}
	return o.ChunkBytes
}

func (o *SinkOptions) maxRetries() int {
	if o.MaxRetries <= 0 {
		return 4
	}
	return o.MaxRetries
}

func (o *SinkOptions) backoff() time.Duration {
	if o.RetryBackoff <= 0 {
		return 250 * time.Millisecond
	}
	return o.RetryBackoff
}

func (o *SinkOptions) maxElapsed() time.Duration {
	switch {
	case o.MaxElapsed < 0:
		return 0 // no budget
	case o.MaxElapsed == 0:
		return 2 * time.Minute
	default:
		return o.MaxElapsed
	}
}

func (o *SinkOptions) client() *http.Client {
	if o.Client != nil {
		return o.Client
	}
	return http.DefaultClient
}

// RemoteSink streams telemetry frames to an ingest collector: a core.Sink
// whose "file" is a device session on the server. Frames buffer into chunks
// — each a standalone log stream in the configured encoding, optionally
// gzip-compressed — shipped when the chunk threshold is reached and on
// Flush. Failed uploads retry with exponential backoff; after the retry
// budget the error is sticky and surfaces on the next write and on Flush,
// like a failed disk write would.
//
// A RemoteSink is single-stream state (one device's frames in order), so
// like the file sinks it is not safe for concurrent use; the replay engines
// write each device's sink from one goroutine.
type RemoteSink struct {
	opts SinkOptions
	// endpoint is where chunks currently post; origin is the configured
	// collector. A 307/308 answer (a shard-routing gateway pointing at the
	// owning shard) moves endpoint — stickily, so later chunks skip the
	// gateway hop — and any failure on the redirected endpoint falls back to
	// origin, which knows the ring's current shape.
	endpoint string
	origin   string
	// client is the configured client with redirect-following disabled: the
	// sink handles 307/308 itself, so the re-route can stick across chunks.
	client *http.Client
	// stream is this sink's random upload-generation token: the server
	// scopes chunk-sequence deduplication to it, so a new sink for the same
	// device appends instead of colliding with a previous run's chunk
	// numbers.
	stream string

	chunk   bytes.Buffer
	zw      *gzip.Writer
	encoded countingWriter // pre-compression bytes of the open chunk
	enc     core.LogEncoder
	pending int // frames in the open chunk

	records      int
	frames       int
	wireBytes    int
	chunks       int
	retries      int
	redirects    int
	giveUps      int
	backoffSlept time.Duration
	err          error

	// Client-side obs instruments (nil without SinkOptions.Metrics; every
	// operation on them is then a no-op).
	metChunks    *obs.Counter
	metRetries   *obs.Counter
	metRedirects *obs.Counter
	metGiveUps   *obs.Counter
	metBackoff   *obs.Histogram
}

// NewRemoteSink builds a sink streaming to the collector at opts.URL.
func NewRemoteSink(opts SinkOptions) (*RemoteSink, error) {
	if opts.URL == "" {
		return nil, fmt.Errorf("ingest: remote sink needs a collector URL")
	}
	if opts.Device == "" {
		return nil, fmt.Errorf("ingest: remote sink needs a device ID")
	}
	base, err := url.Parse(opts.URL)
	if err != nil {
		return nil, fmt.Errorf("ingest: collector URL: %w", err)
	}
	endpoint := base.JoinPath("ingest")
	q := endpoint.Query()
	q.Set("device", opts.Device)
	endpoint.RawQuery = q.Encode()
	var tok [8]byte
	if _, err := rand.Read(tok[:]); err != nil {
		return nil, fmt.Errorf("ingest: stream token: %w", err)
	}
	s := &RemoteSink{opts: opts, endpoint: endpoint.String(), origin: endpoint.String(), stream: hex.EncodeToString(tok[:])}
	// Nil registry hands back nil instruments whose methods are no-ops, so
	// the upload path needs no telemetry conditionals.
	s.metChunks = opts.Metrics.Counter("mlexray_sink_chunks_total",
		"Chunks successfully uploaded by RemoteSinks.")
	s.metRetries = opts.Metrics.Counter("mlexray_sink_retries_total",
		"Upload attempts retried after a transient failure.")
	s.metRedirects = opts.Metrics.Counter("mlexray_sink_redirects_total",
		"Shard re-routes (307/308 Location answers) followed.")
	s.metGiveUps = opts.Metrics.Counter("mlexray_sink_giveups_total",
		"Chunk uploads abandoned after exhausting the retry budget.")
	s.metBackoff = opts.Metrics.Histogram("mlexray_sink_backoff_seconds",
		"Backoff sleeps between upload retries.", obs.LatencyBounds())
	// Disable the client's own redirect following (a copy, so the caller's
	// client is untouched): post handles 307/308 itself to make the shard
	// re-route sticky instead of re-resolving through the gateway per chunk.
	c := *opts.client()
	c.CheckRedirect = func(req *http.Request, via []*http.Request) error {
		return http.ErrUseLastResponse
	}
	s.client = &c
	if err := s.openChunk(); err != nil {
		return nil, err
	}
	return s, nil
}

// openChunk starts a fresh standalone log stream in the buffer. The encoder
// and its buffer are built once and restarted per chunk.
func (s *RemoteSink) openChunk() error {
	s.chunk.Reset()
	s.pending = 0
	s.encoded.n = 0
	var w io.Writer = &s.chunk
	if s.opts.Gzip {
		if s.zw == nil {
			s.zw = gzip.NewWriter(&s.chunk)
		} else {
			s.zw.Reset(&s.chunk)
		}
		w = s.zw
	}
	// The chunk threshold reads pre-compression bytes: gzip buffers
	// internally, so the compressed buffer length lags far behind what has
	// been encoded.
	s.encoded.w = w
	if s.enc != nil {
		s.enc.Reset(&s.encoded)
		return nil
	}
	enc, err := core.NewLogEncoder(&s.encoded, s.opts.Format)
	if err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	s.enc = enc
	return nil
}

// countingWriter counts the bytes passing through to w.
type countingWriter struct {
	w io.Writer
	n int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += n
	return n, err
}

// WriteFrame implements core.Sink: the frame's records append to the open
// chunk, which ships once it crosses the chunk threshold.
func (s *RemoteSink) WriteFrame(frame int, recs []core.Record) error {
	if s.err != nil {
		return s.err
	}
	for i := range recs {
		if err := s.enc.EncodeRecord(&recs[i]); err != nil {
			s.err = fmt.Errorf("ingest: encode frame %d record %d: %w", frame, i, err)
			return s.err
		}
	}
	s.records += len(recs)
	s.frames++
	s.pending++
	if err := s.enc.Flush(); err != nil {
		s.err = fmt.Errorf("ingest: %w", err)
		return s.err
	}
	if s.encoded.n >= s.opts.chunkBytes() {
		return s.ship()
	}
	if s.frames == 1 {
		// A chunk ships at the first frame boundary past the threshold, so
		// it tops out near the threshold plus one frame — and only now is a
		// frame's size known. Reserving that spares a new sink regrowing the
		// buffer by doubling all the way through its first chunk.
		s.chunk.Grow(s.opts.chunkBytes())
	}
	return nil
}

// Flush implements core.Sink: the final partial chunk ships and the first
// upload error (if any) is reported.
func (s *RemoteSink) Flush() error {
	if s.err != nil {
		return s.err
	}
	if s.pending > 0 {
		return s.ship()
	}
	return nil
}

// ship closes the open chunk into one POST /ingest (with retry/backoff) and
// opens the next.
func (s *RemoteSink) ship() error {
	if err := s.enc.Flush(); err != nil {
		s.err = fmt.Errorf("ingest: %w", err)
		return s.err
	}
	if s.opts.Gzip {
		if err := s.zw.Close(); err != nil {
			s.err = fmt.Errorf("ingest: %w", err)
			return s.err
		}
	}
	body := s.chunk.Bytes()
	if err := s.post(body, s.chunks); err != nil {
		s.giveUps++
		s.metGiveUps.Inc()
		s.err = err
		return s.err
	}
	s.wireBytes += len(body)
	s.chunks++
	s.metChunks.Inc()
	return s.openChunk()
}

// maxRetryAfter caps how long a collector's Retry-After hint can stall one
// attempt, so a misconfigured server cannot park the sink for hours.
const maxRetryAfter = 30 * time.Second

// maxRetryWait caps one backoff step: past ~7 doublings the exponential
// curve adds nothing but shift-overflow risk with a large MaxRetries.
const maxRetryWait = 30 * time.Second

// retryWait computes the attempt'th backoff: exponential from the base,
// capped, with full jitter over the upper half so a swarm of sinks kicked
// loose by the same collector restart does not retry in lockstep.
func retryWait(base time.Duration, attempt int) time.Duration {
	wait := base
	for i := 0; i < attempt && wait < maxRetryWait; i++ {
		wait *= 2
	}
	if wait > maxRetryWait {
		wait = maxRetryWait
	}
	return wait/2 + mrand.N(wait/2+1)
}

// maxShardRedirects caps Location hops within one upload, so two gateways
// pointing at each other cannot bounce the sink forever.
const maxShardRedirects = 4

// post uploads one chunk, retrying transient failures (network errors, 5xx,
// and 429 throttling) with jittered exponential backoff under two budgets:
// MaxRetries attempts and MaxElapsed total time. A Retry-After header on a
// throttled or unavailable response (the collector's admission control)
// stretches the wait to what the server asked for. A 307/308 with a
// Location (a shard-routing gateway naming the owning shard) re-posts there
// immediately — a transparent re-route, not a retry — and the new endpoint
// sticks for subsequent chunks; any later failure falls back to the
// configured collector, which re-routes against the ring's current shape.
// The chunk sequence number rides along so a retry of a chunk the server
// already applied (response lost in flight) is acknowledged instead of
// double-ingested.
func (s *RemoteSink) post(body []byte, chunkIdx int) error {
	start := time.Now()
	budget := s.opts.maxElapsed()
	// Summed once per chunk: every retry and redirect hop announces the same
	// checksum, so the server applies these bytes or refuses the delivery.
	up := httpx.Upload{Device: s.opts.Device, Stream: s.stream, Chunk: chunkIdx, Sum: httpx.Checksum(body), HasSum: true}
	var lastErr error
	attempt, hops := 0, 0
	for {
		req, err := http.NewRequest(http.MethodPost, s.endpoint, bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("ingest: %w", err)
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		up.SetHeaders(req.Header)
		// The trace ID: stream token + chunk sequence, stable across
		// retries and redirect hops of the same chunk, so every hop's span
		// (gateway, shard ingest, WAL) carries one ID per logical upload.
		req.Header.Set(obs.TraceHeader, s.stream+"-"+strconv.Itoa(chunkIdx))
		if s.opts.Gzip {
			req.Header.Set("Content-Encoding", "gzip")
		}
		var retryAfter time.Duration
		resp, err := s.client.Do(req)
		if err == nil {
			status := resp.StatusCode
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			retryAfter = parseRetryAfter(resp.Header.Get("Retry-After"))
			loc := resp.Header.Get("Location")
			resp.Body.Close()
			switch {
			case status == http.StatusTemporaryRedirect || status == http.StatusPermanentRedirect:
				if target, perr := req.URL.Parse(loc); perr == nil && loc != "" && hops < maxShardRedirects {
					hops++
					s.redirects++
					s.metRedirects.Inc()
					s.endpoint = target.String()
					continue // transparent re-route: no backoff, no attempt spent
				}
				lastErr = fmt.Errorf("ingest: collector redirect (%d) unusable (Location %q after %d hops)", status, loc, hops)
			case status < 300:
				return nil
			default:
				lastErr = fmt.Errorf("ingest: collector returned %d: %s", status, bytes.TrimSpace(msg))
				if status < 500 && status != http.StatusTooManyRequests {
					// The collector rejected the chunk; resending it cannot
					// help. 429 is the exception: over-rate is transient by
					// definition.
					return lastErr
				}
			}
		} else {
			lastErr = fmt.Errorf("ingest: upload: %w", err)
		}
		// A failure on a re-routed endpoint goes back through the configured
		// collector: the shard the redirect named may be gone, and the
		// gateway knows the ring's current shape.
		s.endpoint = s.origin
		if attempt >= s.opts.maxRetries() {
			return fmt.Errorf("%w (gave up after %d attempts in %v)",
				lastErr, attempt+1, time.Since(start).Round(time.Millisecond))
		}
		wait := retryWait(s.opts.backoff(), attempt)
		if retryAfter > wait {
			wait = retryAfter
		}
		if budget > 0 && time.Since(start)+wait > budget {
			return fmt.Errorf("%w (retry budget %v exhausted after %d attempts)",
				lastErr, budget, attempt+1)
		}
		s.retries++
		s.metRetries.Inc()
		s.backoffSlept += wait
		s.metBackoff.Observe(wait.Seconds())
		time.Sleep(wait)
		attempt++
	}
}

// parseRetryAfter reads a Retry-After header's delay-seconds form (what the
// collector sends), capped at maxRetryAfter; anything else means no hint.
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	secs, err := strconv.Atoi(h)
	if err != nil || secs < 0 {
		return 0
	}
	d := time.Duration(secs) * time.Second
	if d > maxRetryAfter {
		return maxRetryAfter
	}
	return d
}

// Bytes returns the wire bytes successfully uploaded (post-compression).
func (s *RemoteSink) Bytes() int { return s.wireBytes }

// Chunks returns the uploads completed so far.
func (s *RemoteSink) Chunks() int { return s.chunks }

// Retries returns how many upload attempts were retried.
func (s *RemoteSink) Retries() int { return s.retries }

// SinkStats is one upload session's summary — what edgerun -upload prints
// on exit.
type SinkStats struct {
	Device    string `json:"device"`
	Records   int    `json:"records"`
	Frames    int    `json:"frames"`
	Chunks    int    `json:"chunks"`
	WireBytes int    `json:"wire_bytes"`
	Retries   int    `json:"retries"`
	Redirects int    `json:"redirects"`
	// GiveUps counts chunks abandoned after the retry budget; with a
	// non-empty LastErr the stream is truncated at the server.
	GiveUps      int           `json:"give_ups"`
	BackoffSlept time.Duration `json:"backoff_slept"`
	LastErr      string        `json:"last_err,omitempty"`
}

// Stats snapshots the sink's upload counters. Like the sink itself it is
// single-goroutine state: call it from the goroutine that writes the sink
// (typically after Flush).
func (s *RemoteSink) Stats() SinkStats {
	st := SinkStats{
		Device:       s.opts.Device,
		Records:      s.records,
		Frames:       s.frames,
		Chunks:       s.chunks,
		WireBytes:    s.wireBytes,
		Retries:      s.retries,
		Redirects:    s.redirects,
		GiveUps:      s.giveUps,
		BackoffSlept: s.backoffSlept,
	}
	if s.err != nil {
		st.LastErr = s.err.Error()
	}
	return st
}
