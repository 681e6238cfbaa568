package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"mlexray/internal/core"
	"mlexray/internal/httpx"
	"mlexray/internal/ingest"
	"mlexray/internal/obs"
)

// ShardAddr names one collector shard and where it listens.
type ShardAddr struct {
	// Name is the shard's ring identity. Placement hashes the name, not the
	// URL, so a shard can move hosts (or be restarted on a new port) without
	// relocating its devices.
	Name string
	// URL is the shard collector's base URL (e.g. "http://host:9091").
	URL string
}

// GatewayOptions configures a Gateway.
type GatewayOptions struct {
	// Shards is the ring membership: every collector shard by name and URL.
	Shards []ShardAddr
	// Vnodes is the per-shard virtual-node count (<= 0 means DefaultVnodes).
	// Must match across every gateway fronting the same ring.
	Vnodes int
	// Validate mirrors the shards' ServerOptions.Validate; the merged fleet
	// report applies the same thresholds the shards do. Unset fields default
	// as the shards' do (core.ValidateOptions.WithDefaults).
	Validate core.ValidateOptions
	// RedirectUploads answers POST /ingest with 307 + Location naming the
	// owning shard instead of proxying the body. Sinks that honor the
	// redirect (ingest.RemoteSink does) then stream to the shard directly,
	// keeping bulk telemetry bytes off the gateway.
	RedirectUploads bool
	// Client overrides the HTTP client used for proxying and fan-out.
	Client *http.Client
	// HealthTimeout bounds each shard probe in the aggregated /healthz
	// fan-out, so one hung shard cannot stall the gateway's own health
	// answer; <= 0 means 2 seconds.
	HealthTimeout time.Duration
	// Metrics is the registry the gateway instruments itself into; nil
	// means a private per-gateway registry (GET /metrics serves it either
	// way). DisableMetrics turns self-telemetry off entirely.
	Metrics        *obs.Registry
	DisableMetrics bool
}

// gatewayMetrics holds the gateway's pre-registered instruments: per-shard
// proxy latency and 502 counts (the ring's health as seen from the routing
// tier) plus redirect issuance. Per-shard series register once at
// construction — the shard set is fixed at boot — so the proxy path is a
// map read plus atomics. Over a nil registry (DisableMetrics) every
// instrument is nil and its methods no-ops.
type gatewayMetrics struct {
	reg        *obs.Registry
	redirects  *obs.Counter
	proxyLat   map[string]*obs.Histogram
	badGateway map[string]*obs.Counter
}

func newGatewayMetrics(reg *obs.Registry, shards []string) *gatewayMetrics {
	m := &gatewayMetrics{
		reg: reg,
		redirects: reg.Counter("mlexray_gateway_redirects_total",
			"Uploads answered 307 naming the owning shard."),
		proxyLat:   make(map[string]*obs.Histogram, len(shards)),
		badGateway: make(map[string]*obs.Counter, len(shards)),
	}
	for _, name := range shards {
		m.proxyLat[name] = reg.Histogram("mlexray_gateway_proxy_seconds",
			"Proxied request latency by shard.", obs.LatencyBounds(), obs.L("shard", name))
		m.badGateway[name] = reg.Counter("mlexray_gateway_bad_gateway_total",
			"502 answers for unreachable shards, by shard.", obs.L("shard", name))
	}
	return m
}

// Gateway fronts a consistent-hash ring of ingest collectors with the same
// HTTP surface a single collector serves:
//
//	POST /ingest            — routed (proxy or 307) to the device's shard
//	GET  /devices           — union of every shard's device list
//	GET  /devices/{device}  — proxied to the owning shard
//	GET  /fleet             — per-shard snapshots merged into one report
//	GET  /fleet/export      — the merged snapshot union (gateway stacking)
//	GET  /healthz           — gateway + per-shard health
//
// The merged /fleet is byte-identical to a single collector holding every
// session: shards export accumulator-level snapshots (not finished reports)
// and core.MergeFleetSnapshots runs the same finalizer a lone collector
// runs, so fleet-wide sums, divergence gating, and float folding all happen
// exactly once, in the same order.
type Gateway struct {
	opts GatewayOptions
	ring *Ring
	// base maps a shard name to its base URL, trailing slash trimmed, so a
	// shard request is base + path.
	base map[string]string

	// met/traces are the gateway's self-telemetry (nil instruments and a
	// nil ring with DisableMetrics); both are nil-safe throughout.
	met    *gatewayMetrics
	traces *obs.TraceRing

	mux *http.ServeMux
}

// NewGateway builds a gateway over the given shard set.
func NewGateway(opts GatewayOptions) (*Gateway, error) {
	names := make([]string, 0, len(opts.Shards))
	base := make(map[string]string, len(opts.Shards))
	for _, s := range opts.Shards {
		if s.URL == "" {
			return nil, fmt.Errorf("shard: shard %q has no URL", s.Name)
		}
		u, err := url.Parse(s.URL)
		if err != nil {
			return nil, fmt.Errorf("shard: shard %q URL: %w", s.Name, err)
		}
		names = append(names, s.Name)
		base[s.Name] = strings.TrimRight(u.String(), "/")
	}
	ring, err := NewRing(names, opts.Vnodes)
	if err != nil {
		return nil, err
	}
	opts.Validate = opts.Validate.WithDefaults()
	if opts.Client == nil {
		opts.Client = http.DefaultClient
	}
	if opts.HealthTimeout <= 0 {
		opts.HealthTimeout = 2 * time.Second
	}
	g := &Gateway{opts: opts, ring: ring, base: base}
	var reg *obs.Registry
	if !opts.DisableMetrics {
		if reg = opts.Metrics; reg == nil {
			reg = obs.NewRegistry()
		}
		g.traces = obs.NewTraceRing(obs.DefaultTraceCapacity)
	}
	g.met = newGatewayMetrics(reg, ring.Shards())
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", g.handleIngest)
	mux.HandleFunc("GET /devices", g.handleDevices)
	mux.HandleFunc("GET /devices/{device}", g.handleDevice)
	mux.HandleFunc("GET /fleet", g.handleFleet)
	mux.HandleFunc("GET /fleet/export", g.handleFleetExport)
	mux.HandleFunc("GET /healthz", g.handleHealth)
	if reg != nil {
		mux.Handle("GET /metrics", reg.Handler())
	}
	if g.traces != nil {
		mux.Handle("GET /debug/trace", g.traces.Handler())
	}
	g.mux = mux
	return g, nil
}

// Metrics returns the gateway's registry (nil when DisableMetrics) — the
// families GET /metrics renders, for in-process scrapers.
func (g *Gateway) Metrics() *obs.Registry { return g.met.reg }

// TraceDump returns the buffered request spans oldest-first — the
// programmatic accessor behind GET /debug/trace.
func (g *Gateway) TraceDump() []obs.Span { return g.traces.Spans("") }

// Traces returns the gateway's bounded span ring (nil with
// DisableMetrics) — what a daemon's -debug-addr listener mounts at
// /debug/trace.
func (g *Gateway) Traces() *obs.TraceRing { return g.traces }

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) { g.mux.ServeHTTP(w, r) }

// Ring exposes the gateway's placement ring (tests, status tooling).
func (g *Gateway) Ring() *Ring { return g.ring }

// Owner returns the shard name owning a device — the routing decision
// POST /ingest makes, exposed for harnesses that need to aim at (or kill)
// a specific device's shard.
func (g *Gateway) Owner(device string) string { return g.ring.Owner(device) }

func (g *Gateway) handleIngest(w http.ResponseWriter, r *http.Request) {
	up, err := httpx.ParseUpload(r)
	if err != nil {
		httpx.Error(w, http.StatusBadRequest, "%v", err)
		return
	}
	owner := g.ring.Owner(up.Device)
	start := time.Now()
	if g.opts.RedirectUploads {
		// 307 keeps the method and body: the client re-POSTs the same chunk
		// to the shard. RemoteSink treats the new endpoint as sticky.
		g.met.redirects.Inc()
		w.Header().Set("Location", g.base[owner]+r.URL.RequestURI())
		w.Header().Set("X-MLEXray-Shard", owner)
		w.WriteHeader(http.StatusTemporaryRedirect)
		g.traces.RecordSince(r.Header.Get(obs.TraceHeader), "gateway",
			"redirect:"+owner, http.StatusTemporaryRedirect, start)
		return
	}
	sc := httpx.CaptureStatus(w)
	g.proxy(sc, r, owner)
	g.traces.RecordSince(r.Header.Get(obs.TraceHeader), "gateway",
		"proxy:"+owner, sc.Status(), start)
}

func (g *Gateway) handleDevice(w http.ResponseWriter, r *http.Request) {
	g.proxy(w, r, g.ring.Owner(r.PathValue("device")))
}

// proxy forwards the request to one shard and relays the response verbatim
// — status, headers (the shard's Retry-After backpressure hints included),
// and body. An unreachable shard is a 502: the gateway is fine, the ring
// member is not.
func (g *Gateway) proxy(w http.ResponseWriter, r *http.Request, shard string) {
	start := time.Now()
	req, err := http.NewRequestWithContext(r.Context(), r.Method, g.base[shard]+r.URL.RequestURI(), r.Body)
	if err != nil {
		httpx.Error(w, http.StatusInternalServerError, "proxy: %v", err)
		return
	}
	req.Header = r.Header.Clone()
	req.ContentLength = r.ContentLength
	resp, err := g.opts.Client.Do(req)
	g.met.proxyLat[shard].ObserveSince(start)
	if err != nil {
		g.met.badGateway[shard].Inc()
		httpx.Error(w, http.StatusBadGateway, "shard %q unreachable: %v", shard, err)
		return
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// shardStatusError is a shard answering a fan-out GET with a non-200: the
// shard is alive, so its own status and error envelope are the evidence. A
// 409 (collection mode: the shard cannot produce fleet state) the gateway
// relays as its own 409 rather than masking it as a gateway fault.
type shardStatusError struct {
	shard, path string
	status      int
	body        []byte
}

func (e *shardStatusError) Error() string {
	return fmt.Sprintf("shard %q %s: status %d: %s", e.shard, e.path, e.status, strings.TrimSpace(string(e.body)))
}

// getJSON GETs one shard's path and decodes the 200 reply into v.
func (g *Gateway) getJSON(ctx context.Context, shard, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, g.base[shard]+path, nil)
	if err != nil {
		return err
	}
	resp, err := g.opts.Client.Do(req)
	if err != nil {
		return fmt.Errorf("shard %q unreachable: %w", shard, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return &shardStatusError{shard: shard, path: path, status: resp.StatusCode, body: body}
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("shard %q %s: %w", shard, path, err)
	}
	return nil
}

// fanOut GETs path from every ring member concurrently and returns the
// decoded replies in ring order, each with its error — the one loop behind
// /fleet, /fleet/export, /devices and /healthz.
func fanOut[T any](ctx context.Context, g *Gateway, path string) ([]T, []error) {
	shards := g.ring.Shards()
	out := make([]T, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i, name := range shards {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			errs[i] = g.getJSON(ctx, name, path, &out[i])
		}(i, name)
	}
	wg.Wait()
	return out, errs
}

// gather is fanOut for the endpoints that need every shard: the per-shard
// lists concatenated, or the first failing shard's error answered — 409 for
// a shard's own 409, 502 otherwise.
func gather[T any](w http.ResponseWriter, r *http.Request, g *Gateway, path string) ([]T, bool) {
	lists, errs := fanOut[[]T](r.Context(), g, path)
	all := []T{}
	for i, err := range errs {
		var se *shardStatusError
		if errors.As(err, &se) && se.status == http.StatusConflict {
			var envelope struct {
				Error string `json:"error"`
			}
			_ = json.Unmarshal(se.body, &envelope)
			httpx.Error(w, http.StatusConflict, "%s", envelope.Error)
			return nil, false
		}
		if err != nil {
			httpx.Error(w, http.StatusBadGateway, "%v", err)
			return nil, false
		}
		all = append(all, lists[i]...)
	}
	return all, true
}

func (g *Gateway) handleFleet(w http.ResponseWriter, r *http.Request) {
	snaps, ok := gather[core.FleetSessionSnapshot](w, r, g, "/fleet/export")
	if !ok {
		return
	}
	rep, err := core.MergeFleetSnapshots(snaps, g.opts.Validate)
	if err != nil {
		// Same body a lone collector's /fleet produces for the same fleet
		// state (e.g. no devices yet).
		httpx.Error(w, http.StatusConflict, "%v", err)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, ingest.NewFleetResponse(rep))
}

func (g *Gateway) handleFleetExport(w http.ResponseWriter, r *http.Request) {
	snaps, ok := gather[core.FleetSessionSnapshot](w, r, g, "/fleet/export")
	if !ok {
		return
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].Device < snaps[j].Device })
	httpx.WriteJSON(w, http.StatusOK, snaps)
}

func (g *Gateway) handleDevices(w http.ResponseWriter, r *http.Request) {
	out, ok := gather[ingest.DeviceStatus](w, r, g, "/devices")
	if !ok {
		return
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Device < out[j].Device })
	httpx.WriteJSON(w, http.StatusOK, out)
}

// ShardHealth is one ring member's view in the gateway's aggregated
// /healthz: reachability plus the shard's own session totals, so the
// gateway's health answer is a fleet summary, not just its own liveness.
type ShardHealth struct {
	Up            bool   `json:"up"`
	Devices       int    `json:"devices"`
	Evictions     int    `json:"evictions"`
	Resurrections int    `json:"resurrections"`
	Error         string `json:"error,omitempty"`
}

// handleHealth aggregates per-shard health: every ring member is probed
// concurrently under HealthTimeout (one hung shard cannot stall the
// answer), and the reply carries each shard's up/down plus session totals
// and the fleet-wide sums. "ok" means every shard answered healthy; the
// HTTP status stays 200 either way — reachability of the gateway itself —
// with the detail in the body.
func (g *Gateway) handleHealth(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), g.opts.HealthTimeout)
	defer cancel()
	// Decoding into ShardHealth picks the shard's own devices / evictions /
	// resurrections totals out of its /healthz body.
	health, errs := fanOut[ShardHealth](ctx, g, "/healthz")
	status := make(map[string]ShardHealth, len(health))
	ok := true
	devices, evictions, resurrections := 0, 0, 0
	for i, name := range g.ring.Shards() {
		h := health[i]
		h.Up = true
		if errs[i] != nil {
			h = ShardHealth{Error: errs[i].Error()}
		}
		status[name] = h
		ok = ok && h.Up
		devices += h.Devices
		evictions += h.Evictions
		resurrections += h.Resurrections
	}
	httpx.WriteJSON(w, http.StatusOK, map[string]any{
		"ok":            ok,
		"shards":        status,
		"devices":       devices,
		"evictions":     evictions,
		"resurrections": resurrections,
		"ring":          map[string]int{"shards": g.ring.N(), "vnodes": g.ring.Vnodes()},
	})
}
