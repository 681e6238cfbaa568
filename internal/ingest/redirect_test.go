package ingest

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestRemoteSinkFollowsShardRedirect pins the shard re-route contract: a
// 307 + Location answer from a routing gateway sends the chunk to the owning
// shard transparently (no error, no retry consumed), and the re-route is
// sticky — later chunks go straight to the shard without another gateway
// hop. When the redirected endpoint dies, the sink falls back to the
// configured gateway rather than failing the upload.
func TestRemoteSinkFollowsShardRedirect(t *testing.T) {
	const frames = 8
	ref := synthLog(frames, nil, false)
	l := synthLog(frames, nil, false)

	shardSrv, err := NewServer(ServerOptions{Ref: ref})
	if err != nil {
		t.Fatal(err)
	}
	shardTS := httptest.NewServer(shardSrv)
	defer shardTS.Close()

	// The gateway: answers every POST with a 307 naming the owning shard,
	// until absorb is flipped — then it accepts chunks itself (the fallback
	// path after the shard it once named has died).
	var gwHits, gwAbsorbed atomic.Int64
	var absorb atomic.Bool
	gw := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gwHits.Add(1)
		if absorb.Load() {
			gwAbsorbed.Add(1)
			w.WriteHeader(http.StatusOK)
			return
		}
		w.Header().Set("Location", shardTS.URL+r.URL.RequestURI())
		w.WriteHeader(http.StatusTemporaryRedirect)
	}))
	defer gw.Close()

	sink, err := NewRemoteSink(SinkOptions{
		URL: gw.URL, Device: "dev",
		ChunkBytes:   256, // force a multi-chunk upload
		RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	uploadLog(t, sink, l)

	if sink.Chunks() < 2 {
		t.Fatalf("upload shipped %d chunk(s), want several to prove stickiness", sink.Chunks())
	}
	if got := gwHits.Load(); got != 1 {
		t.Errorf("gateway saw %d POSTs, want exactly 1 (re-route must stick)", got)
	}
	if got := sink.Stats().Redirects; got != 1 {
		t.Errorf("sink followed %d redirects, want 1", got)
	}
	if sink.Retries() != 0 {
		t.Errorf("redirect consumed %d retries, want 0 — a re-route is not a failure", sink.Retries())
	}
	if got := shardSrv.Session("dev").Records(); got != len(l.Records) {
		t.Errorf("shard holds %d records, want all %d", got, len(l.Records))
	}

	// Kill the shard; the sink's sticky endpoint is now dead. The next chunk
	// must fall back to the configured gateway (which has absorbed the shard's
	// keys) instead of erroring out.
	shardTS.Close()
	shardSrv.Close()
	absorb.Store(true)
	if err := sink.WriteFrame(frames, nil); err != nil {
		t.Fatalf("write after shard death: %v", err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatalf("flush after shard death must fall back to the gateway: %v", err)
	}
	if gwAbsorbed.Load() == 0 {
		t.Error("fallback chunk never reached the gateway")
	}
}

// TestRemoteSinkRedirectLoopBounded pins the hop cap: a gateway that answers
// 307 forever (two gateways pointing at each other) must not hang the sink —
// after maxShardRedirects hops the chunk fails like any other upload error.
func TestRemoteSinkRedirectLoopBounded(t *testing.T) {
	var hits atomic.Int64
	loop := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Location", r.URL.RequestURI())
		w.WriteHeader(http.StatusTemporaryRedirect)
	}))
	defer loop.Close()

	sink, err := NewRemoteSink(SinkOptions{
		URL: loop.URL, Device: "dev",
		MaxRetries: 1, RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	l := synthLog(2, nil, false)
	for i := range l.Records {
		_ = sink.WriteFrame(l.Records[i].Frame, l.Records[i:i+1])
	}
	if err := sink.Flush(); err == nil {
		t.Fatal("endless redirect loop did not fail the upload")
	}
	// Per attempt: 1 initial POST + maxShardRedirects hops.
	wantMax := int64((1 + maxShardRedirects) * 2) // MaxRetries 1 → 2 attempts
	if got := hits.Load(); got > wantMax {
		t.Errorf("loop server saw %d POSTs, want <= %d (hop cap must bound it)", got, wantMax)
	}
}
