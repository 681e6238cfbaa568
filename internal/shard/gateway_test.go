package shard

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"mlexray/internal/core"
	"mlexray/internal/ingest"
	"mlexray/internal/tensor"
)

// gwSynthLog builds the same synthetic telemetry shape the ingest tests use:
// per-layer tensors and latency plus one model output per frame, for the
// frames in own (nil: all of [0,frames)). bugged shifts values and flips
// outputs so exactly the bugged device diverges.
func gwSynthLog(frames int, own []int, bugged bool) *core.Log {
	owned := make(map[int]bool)
	if own == nil {
		for f := 0; f < frames; f++ {
			owned[f] = true
		}
	} else {
		for _, f := range own {
			owned[f] = true
		}
	}
	layers := []string{"conv1", "dw1"}
	opTypes := []string{"Conv2D", "DepthwiseConv2D"}
	l := &core.Log{}
	seq := 0
	for f := 0; f < frames; f++ {
		if !owned[f] {
			continue
		}
		for li, name := range layers {
			tt := tensor.New(tensor.F32, 8)
			for i := range tt.F {
				tt.F[i] = float32(f + li + i)
				if bugged {
					tt.F[i] += 40
				}
			}
			var r core.Record
			r.Seq, r.Frame = seq, f
			r.Key = core.LayerOutputKey(name)
			r.LayerIndex, r.LayerName, r.OpType = li, name, opTypes[li]
			r.EncodeTensor(tt, true)
			l.Records = append(l.Records, r)
			seq++
			l.Records = append(l.Records, core.Record{
				Seq: seq, Frame: f, Key: core.LayerLatencyKey(name), Kind: core.KindMetric,
				LayerIndex: li, LayerName: name, OpType: opTypes[li],
				Value: float64(1000 * (li + 1)), Unit: "ns",
			})
			seq++
		}
		out := tensor.New(tensor.F32, 4)
		idx := f % 4
		if bugged {
			idx = (f + 1) % 4
		}
		out.F[idx] = 1
		var r core.Record
		r.Seq, r.Frame = seq, f
		r.Key = core.KeyModelOutput
		r.EncodeTensor(out, true)
		l.Records = append(l.Records, r)
		seq++
	}
	return l
}

func gwUpload(t testing.TB, baseURL, device string, l *core.Log) *ingest.RemoteSink {
	t.Helper()
	sink, err := ingest.NewRemoteSink(ingest.SinkOptions{
		URL: baseURL, Device: device, ChunkBytes: 512, RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := 0
	for start < len(l.Records) {
		end := start
		for end < len(l.Records) && l.Records[end].Frame == l.Records[start].Frame {
			end++
		}
		if err := sink.WriteFrame(l.Records[start].Frame, l.Records[start:end]); err != nil {
			t.Fatalf("%s: write frame %d: %v", device, l.Records[start].Frame, err)
		}
		start = end
	}
	if err := sink.Flush(); err != nil {
		t.Fatalf("%s: flush: %v", device, err)
	}
	return sink
}

func gwGetBytes(t testing.TB, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, b)
	}
	return b
}

// shardFleet spins up n collector shards plus a gateway over them, all with
// the same reference log.
type shardFleet struct {
	shards  []*ingest.Server
	tss     []*httptest.Server
	gateway *Gateway
	gwTS    *httptest.Server
}

func newShardFleet(t testing.TB, n int, ref *core.Log, redirect bool) *shardFleet {
	t.Helper()
	f := &shardFleet{}
	var addrs []ShardAddr
	for i := 0; i < n; i++ {
		srv, err := ingest.NewServer(ingest.ServerOptions{Ref: ref})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		f.shards = append(f.shards, srv)
		f.tss = append(f.tss, ts)
		addrs = append(addrs, ShardAddr{Name: fmt.Sprintf("shard-%d", i), URL: ts.URL})
	}
	gw, err := NewGateway(GatewayOptions{Shards: addrs, RedirectUploads: redirect})
	if err != nil {
		t.Fatal(err)
	}
	f.gateway = gw
	f.gwTS = httptest.NewServer(gw)
	t.Cleanup(f.gwTS.Close)
	return f
}

func (f *shardFleet) shardByName(name string) (*ingest.Server, *httptest.Server) {
	for i := range f.shards {
		if fmt.Sprintf("shard-%d", i) == name {
			return f.shards[i], f.tss[i]
		}
	}
	return nil, nil
}

// TestGatewayFleetByteIdenticalToSingleCollector is the tentpole pin: six
// devices (one divergent) uploaded through a 4-shard gateway produce a
// merged GET /fleet byte-for-byte equal to the same fleet uploaded into one
// collector — body, divergence flags, float formatting, everything.
func TestGatewayFleetByteIdenticalToSingleCollector(t *testing.T) {
	const frames, nDevs = 12, 6
	ref := gwSynthLog(frames, nil, false)

	logs := make(map[string]*core.Log, nDevs)
	for d := 0; d < nDevs; d++ {
		var own []int
		for f := d; f < frames; f += nDevs {
			own = append(own, f)
		}
		device := fmt.Sprintf("d%d-unit", d)
		logs[device] = gwSynthLog(frames, own, d == 1)
	}

	// Reference: one collector holding every session.
	single, err := ingest.NewServer(ingest.ServerOptions{Ref: ref})
	if err != nil {
		t.Fatal(err)
	}
	singleTS := httptest.NewServer(single)
	defer singleTS.Close()
	for device, l := range logs {
		gwUpload(t, singleTS.URL, device, l)
	}

	// Sharded: same uploads through the gateway in proxy mode.
	fleet := newShardFleet(t, 4, ref, false)
	owners := map[string]bool{}
	for device, l := range logs {
		owners[fleet.gateway.Owner(device)] = true
		gwUpload(t, fleet.gwTS.URL, device, l)
	}
	if len(owners) < 2 {
		t.Fatalf("all %d devices landed on one shard — test exercises no merge", nDevs)
	}

	want := gwGetBytes(t, singleTS.URL+"/fleet")
	got := gwGetBytes(t, fleet.gwTS.URL+"/fleet")
	if !bytes.Equal(want, got) {
		t.Errorf("merged /fleet differs from single collector:\nsingle:  %s\nmerged:  %s", want, got)
	}

	// Per-device proxying: the gateway's /devices/{id} is the owning shard's
	// answer, verbatim.
	for device := range logs {
		_, ownerTS := fleet.shardByName(fleet.gateway.Owner(device))
		wantDev := gwGetBytes(t, ownerTS.URL+"/devices/"+device)
		gotDev := gwGetBytes(t, fleet.gwTS.URL+"/devices/"+device)
		if !bytes.Equal(wantDev, gotDev) {
			t.Errorf("%s: proxied /devices/{id} differs from owner shard", device)
		}
	}
}

// TestGatewayRedirectUploads pins redirect mode end to end: the gateway
// answers one 307 per sink, the sink sticks to the owning shard for the
// rest of the upload, and the records land on exactly the ring's choice.
func TestGatewayRedirectUploads(t *testing.T) {
	const frames = 12
	ref := gwSynthLog(frames, nil, false)
	fleet := newShardFleet(t, 4, ref, true)

	// Front the gateway with a POST counter.
	var gwPosts atomic.Int64
	counting := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			gwPosts.Add(1)
		}
		fleet.gateway.ServeHTTP(w, r)
	}))
	defer counting.Close()

	device := "redirect-dev"
	l := gwSynthLog(frames, nil, false)
	sink := gwUpload(t, counting.URL, device, l)

	if sink.Chunks() < 2 {
		t.Fatalf("upload shipped %d chunk(s), want several", sink.Chunks())
	}
	if got := sink.Stats().Redirects; got != 1 {
		t.Errorf("sink followed %d redirects, want exactly 1 (sticky re-route)", got)
	}
	if got := gwPosts.Load(); got != 1 {
		t.Errorf("gateway saw %d POSTs, want 1 — chunks after the redirect must go shard-direct", got)
	}
	owner, _ := fleet.shardByName(fleet.gateway.Owner(device))
	if got := owner.Session(device).Records(); got != len(l.Records) {
		t.Errorf("owning shard holds %d records, want %d", got, len(l.Records))
	}
	for i, srv := range fleet.shards {
		if srv == owner {
			continue
		}
		if srv.Session(device) != nil {
			t.Errorf("shard-%d holds a session for %s but does not own it", i, device)
		}
	}
}

// TestGatewayDeadShard pins degraded-mode semantics: with one shard down,
// requests needing that shard are 502 (shard unreachable, not a gateway
// crash), while traffic for devices on surviving shards still flows.
func TestGatewayDeadShard(t *testing.T) {
	const frames = 8
	ref := gwSynthLog(frames, nil, false)
	fleet := newShardFleet(t, 4, ref, false)

	// Find devices on two different shards, then kill the first's shard.
	deadDev, liveDev := "", ""
	for i := 0; deadDev == "" || liveDev == ""; i++ {
		d := fmt.Sprintf("probe-%d", i)
		switch fleet.gateway.Owner(d) {
		case "shard-0":
			if deadDev == "" {
				deadDev = d
			}
		default:
			if liveDev == "" {
				liveDev = d
			}
		}
	}
	gwUpload(t, fleet.gwTS.URL, deadDev, gwSynthLog(frames, nil, false))
	gwUpload(t, fleet.gwTS.URL, liveDev, gwSynthLog(frames, nil, false))

	fleet.tss[0].Close()

	if resp, err := http.Get(fleet.gwTS.URL + "/fleet"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadGateway {
			t.Errorf("/fleet with dead shard: status %d, want 502", resp.StatusCode)
		}
	}
	if resp, err := http.Get(fleet.gwTS.URL + "/devices/" + deadDev); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadGateway {
			t.Errorf("/devices/{dead-shard dev}: status %d, want 502", resp.StatusCode)
		}
	}
	if resp, err := http.Get(fleet.gwTS.URL + "/devices/" + liveDev); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("/devices/{live dev}: status %d, want 200", resp.StatusCode)
		}
	}
}

// TestGatewayCollectionMode pins the 409 relay: shards without a reference
// log cannot produce fleet state, and the gateway surfaces that as the same
// conflict a lone collector reports, not as a gateway fault.
func TestGatewayCollectionMode(t *testing.T) {
	fleet := newShardFleet(t, 2, nil, false)
	resp, err := http.Get(fleet.gwTS.URL + "/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("/fleet in collection mode: status %d, want 409", resp.StatusCode)
	}
}
