// Command exraygw is the fleet aggregator gateway: the front door of a
// horizontally sharded ingest deployment. It fronts a consistent-hash ring
// of exrayd collector shards with the exact HTTP surface a single collector
// serves, so edge devices and dashboards talk to one address whether the
// fleet is handled by one collector or sixteen.
//
//	POST /ingest            routed to the device's owning shard
//	GET  /devices           union of every shard's device list
//	GET  /devices/{device}  proxied to the owning shard
//	GET  /fleet             per-shard snapshots merged into one report
//	GET  /fleet/export      the merged snapshot union (gateway stacking)
//	GET  /healthz           gateway + per-shard health (fan-out with timeout)
//	GET  /metrics           Prometheus text exposition (self-telemetry)
//	GET  /debug/trace       recent routed-request spans as JSON
//
// With -debug-addr a second listener additionally serves /metrics,
// /debug/trace and the net/http/pprof endpoints — pprof is never exposed
// on the routing address.
//
// Placement hashes the device ID onto the ring of shard *names*, so a shard
// can be restarted on a new host or port (same -shard name, new URL)
// without relocating any device's session. The merged /fleet is
// byte-identical to what a single collector holding every session would
// serve: shards export accumulator-level snapshots and the gateway runs the
// same finalizer a lone collector runs.
//
// Usage:
//
//	exrayd -ref ref.jsonl -addr :9091 -data-dir /var/lib/exray/s0
//	exrayd -ref ref.jsonl -addr :9092 -data-dir /var/lib/exray/s1
//	exraygw -addr :9090 -shard s0=http://localhost:9091 -shard s1=http://localhost:9092
//	edgerun -frames 24 -upload http://localhost:9090 -o edge.jsonl
//	curl localhost:9090/fleet
//
// A bare URL (no name=) is auto-named shard-0, shard-1, ... in flag order.
// With -redirect the gateway answers uploads with 307 + Location naming the
// owning shard instead of proxying the body; upload clients that honor it
// (edgerun's sink does) then stream to the shard directly, keeping bulk
// telemetry bytes off the gateway.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"

	"mlexray/internal/core"
	"mlexray/internal/httpx"
	"mlexray/internal/obs"
	"mlexray/internal/shard"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "exraygw:", err)
		os.Exit(1)
	}
}

// serve runs the accept loop; tests stub it out to exercise run() without
// binding the process to a socket forever.
var serve = func(ln net.Listener, hs *http.Server) error {
	return hs.Serve(ln)
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("exraygw", flag.ContinueOnError)
	var shards []shard.ShardAddr
	fs.Func("shard", "ring member as name=url (repeatable; a bare url is auto-named shard-N in flag order)", func(v string) error {
		name, u, ok := strings.Cut(v, "=")
		if !ok {
			name, u = fmt.Sprintf("shard-%d", len(shards)), v
		}
		if name == "" || u == "" {
			return fmt.Errorf("want name=url or url, got %q", v)
		}
		shards = append(shards, shard.ShardAddr{Name: name, URL: u})
		return nil
	})
	d := httpx.Daemon{Name: "exraygw", Stdout: stdout, Serve: serve}
	d.Flags(fs)
	var (
		vnodes    = fs.Int("vnodes", 0, "virtual nodes per shard on the placement ring (0 = default; must match every gateway fronting the same ring)")
		redirect  = fs.Bool("redirect", false, "answer uploads with 307 + Location to the owning shard instead of proxying the body")
		agreement = fs.Float64("agreement", 0, "output-agreement threshold for the merged fleet report; must match the shards' (0 = default)")
		healthTO  = fs.Duration("health-timeout", 0, "per-shard /healthz probe bound in the aggregated health fan-out (0 = 2s)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(shards) == 0 {
		return fmt.Errorf("no ring membership: pass at least one -shard name=url")
	}

	// One shared registry for the gateway's routing counters and the process
	// runtime gauges.
	reg := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(reg)

	opts := shard.GatewayOptions{
		Shards:          shards,
		Vnodes:          *vnodes,
		RedirectUploads: *redirect,
		HealthTimeout:   *healthTO,
		Metrics:         reg,
	}
	if *agreement > 0 {
		opts.Validate = core.ValidateOptions{AgreementThreshold: *agreement}
	}
	// A dedicated transport: shard fan-out reuses pooled connections instead
	// of competing with whatever else the process dials.
	transport := &http.Transport{MaxIdleConnsPerHost: 64}
	defer transport.CloseIdleConnections()
	opts.Client = &http.Client{Transport: transport}

	gw, err := shard.NewGateway(opts)
	if err != nil {
		return err
	}
	mode := "proxy"
	if *redirect {
		mode = "redirect"
	}
	for _, s := range shards {
		fmt.Fprintf(stdout, "exraygw: shard %-10s %s\n", s.Name, s.URL)
	}
	fmt.Fprintf(stdout, "exraygw: ring of %d shard(s), %d vnodes each, %s uploads\n",
		gw.Ring().N(), gw.Ring().Vnodes(), mode)

	// The gateway holds no durable state of its own — every session lives in
	// a shard's WAL — so graceful shutdown is just a request drain.
	d.Handler, d.Debug = gw, obs.DebugMux(reg, gw.Traces())
	return d.Run()
}
