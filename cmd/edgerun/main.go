// Command edgerun executes an instrumented edge pipeline over the synthetic
// dataset and writes the ML-EXray telemetry log as JSONL — the on-device
// half of the validation workflow. Pair with refrun and feed both logs to
// the validation library (or cmd/exray for the one-shot flow).
//
// The replay shards across -parallel workers (default: all cores), each
// owning its own interpreter replica, and each worker runs -batch frames per
// batched interpreter invoke (1 = frame at a time); telemetry streams to
// disk merged in frame order, so the log is identical to a single-worker
// frame-at-a-time run.
//
// The telemetry encoding is selectable with -log-format: "jsonl" (the
// human-readable default) or "binary" (the length-prefixed raw-payload
// format, roughly half the bytes and a fraction of the encode cost for
// full-tensor capture). cmd/exray and mlexray.ReadLog auto-detect either.
//
// With -fleet the replay shards across several simulated devices instead of
// one: the spec "profile:workers[:batch],..." builds a heterogeneous fleet
// whose shard policy (-shard: contiguous, round-robin or weighted) splits
// the frame range. Each device writes its own shard log next to -o
// (edge.jsonl -> edge.d0-Pixel4.jsonl, ...) and the merged fleet log —
// byte-identical to a sequential replay of the same shard assignment — goes
// to -o itself.
//
// With -upload the telemetry additionally streams to a running exrayd
// collector (chunked uploads, one session per device — fleet devices
// upload as d0-Pixel4, d1-..., matching their shard-log file names), so the
// daemon's incremental /fleet and /devices reports are ready when the replay
// ends. Uploads are always the binary encoding: -log-format chooses the
// local file's format only. Chunks go uncompressed unless -upload-gzip is
// set: gzip halves the wire for ~29x the device's upload CPU (the flag's help
// has the figures), so it is the opt-in for constrained uplinks.
//
// Usage:
//
//	edgerun -model mobilenetv2-mini -bug normalization -o edge.jsonl
//	edgerun -model mobilenetv2-mini -log-format binary -o edge.mlxb
//	edgerun -model mobilenetv2-mini -quant -device Pixel4 -parallel 8 -batch 32 -o edge.jsonl
//	edgerun -model mobilenetv2-mini -fleet "Pixel4:2:8,Pixel3:1,Emulator-x86:1" -shard weighted -o edge.jsonl
//	edgerun -model mobilenetv2-mini -fleet "Pixel4:2,Pixel3:1" -upload http://localhost:9090 -o edge.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mlexray/internal/core"
	"mlexray/internal/datasets"
	"mlexray/internal/device"
	"mlexray/internal/graph"
	"mlexray/internal/imaging"
	"mlexray/internal/ingest"
	"mlexray/internal/ops"
	"mlexray/internal/pipeline"
	"mlexray/internal/replay"
	"mlexray/internal/runner"
	"mlexray/internal/zoo"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "edgerun:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("edgerun", flag.ContinueOnError)
	var (
		model    = fs.String("model", "mobilenetv2-mini", "zoo model name (classification)")
		bug      = fs.String("bug", "none", "injected preprocessing bug")
		quantF   = fs.Bool("quant", false, "deploy the quantized version")
		devName  = fs.String("device", "Pixel4", "device profile")
		frames   = fs.Int("frames", 8, "frames to process")
		perLayer = fs.Bool("perlayer", true, "capture per-layer outputs")
		parallel = fs.Int("parallel", 0, "replay workers (0 = all cores)")
		batch    = fs.Int("batch", 8, "frames per batched interpreter invoke (1 = frame at a time)")
		fleet    = fs.String("fleet", "", `shard across a device fleet: "profile:workers[:batch],..." (overrides -device/-parallel/-batch)`)
		shard    = fs.String("shard", "contiguous", "fleet shard policy: contiguous|round-robin|weighted")
		kernel   = fs.String("kernel", "", "kernel backend: tiled|reference (default tiled)")
		logFmt   = fs.String("log-format", "jsonl", "telemetry log encoding: jsonl|binary")
		upload   = fs.String("upload", "", "also stream telemetry to an exrayd collector at this URL (per-device sessions; uploads are binary whatever -log-format writes locally)")
		gz       = fs.Bool("upload-gzip", false, "gzip-compress upload chunks (default false: gzip takes the wire from 129.9 to 61.9 KB/frame but the device's upload CPU from 220 to 6,374 us/frame, 29x, all compress/flate; set it for constrained uplinks)")
		out      = fs.String("o", "edge.jsonl", "output log path")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := replay.ValidateFlags(*frames, *parallel, *batch); err != nil {
		return err
	}
	format, err := core.ParseLogFormat(*logFmt)
	if err != nil {
		return err
	}
	backend, err := ops.ParseBackend(*kernel)
	if err != nil {
		return err
	}

	entry, err := zoo.Get(*model)
	if err != nil {
		return err
	}
	m := entry.Mobile
	if *quantF {
		m = entry.Quant
	}
	images := replay.Images(datasets.SynthImageNet(5555, *frames))
	monOpts := []core.MonitorOption{core.WithCaptureMode(core.CaptureFull), core.WithPerLayer(*perLayer)}
	popts := pipeline.Options{
		Resolver: ops.NewOptimized(ops.Historical()),
		Bug:      pipeline.Bug(*bug),
		Backend:  backend,
	}

	up := uploadOptions{url: *upload, gzip: *gz}

	if *fleet != "" {
		return runFleet(stdout, m, popts, images, *fleet, *shard, monOpts, format, *out, up)
	}

	dev, err := device.ByName(*devName)
	if err != nil {
		return err
	}
	popts.Device = dev
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	sink, err := core.NewLogSink(f, format)
	if err != nil {
		return err
	}
	frameSink, remote, err := up.wrap(sink, *devName)
	if err != nil {
		return err
	}
	// DiscardLog: frames stream to disk as they merge, so memory stays flat
	// however long the replay; the engine bounds the reorder window.
	_, err = replay.Classification(m, popts, images, runner.Options{
		Workers:        *parallel,
		BatchFrames:    *batch,
		MonitorOptions: monOpts,
		Sink:           frameSink,
		DiscardLog:     true,
	}, nil)
	if err != nil {
		return err
	}
	if err := frameSink.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "edgerun: wrote %d records (%d bytes, %s) to %s\n", sink.Records(), sink.Bytes(), sink.Format(), *out)
	if remote != nil {
		fmt.Fprintf(stdout, "edgerun: uploaded to %s as %s: %s\n", up.url, *devName, uploadSummary(remote.Stats()))
	}
	return nil
}

// uploadSummary renders one sink's end-of-run Stats line: volume always,
// retry/redirect/failure detail only when there is any to report.
func uploadSummary(st ingest.SinkStats) string {
	s := fmt.Sprintf("%d records, %d frames in %d chunks (%d wire bytes)",
		st.Records, st.Frames, st.Chunks, st.WireBytes)
	if st.Retries > 0 {
		s += fmt.Sprintf(", %d retries (%v backing off)", st.Retries, st.BackoffSlept.Round(time.Millisecond))
	}
	if st.Redirects > 0 {
		s += fmt.Sprintf(", %d redirects", st.Redirects)
	}
	if st.GiveUps > 0 {
		s += fmt.Sprintf(", %d chunks given up (last error: %s)", st.GiveUps, st.LastErr)
	}
	return s
}

// uploadOptions carries the -upload flags: when url is set, every log sink
// tees its frames into a RemoteSink streaming to the exrayd collector, one
// session per device.
type uploadOptions struct {
	url  string
	gzip bool
}

// wrap tees local into a RemoteSink for the named device session (a no-op
// pass-through when no collector URL was given). The upload encoding is a
// wire decision, not the user's: always binary, which costs the device a
// fraction of the JSONL encode and the collector a fraction of the decode.
func (u uploadOptions) wrap(local core.Sink, device string) (core.Sink, *ingest.RemoteSink, error) {
	if u.url == "" {
		return local, nil, nil
	}
	remote, err := ingest.NewRemoteSink(ingest.SinkOptions{
		URL: u.url, Device: device, Format: core.FormatBinary, Gzip: u.gzip,
	})
	if err != nil {
		return nil, nil, err
	}
	return teeSink{local, remote}, remote, nil
}

// teeSink fans frames out to several sinks in order (local file first, then
// the collector upload).
type teeSink []core.Sink

// WriteFrame implements core.Sink.
func (t teeSink) WriteFrame(frame int, recs []core.Record) error {
	for _, s := range t {
		if err := s.WriteFrame(frame, recs); err != nil {
			return err
		}
	}
	return nil
}

// Flush implements core.Sink.
func (t teeSink) Flush() error {
	for _, s := range t {
		if err := s.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// deviceLogPath derives device d's shard-log path from the merged-log path:
// edge.jsonl -> edge.d0-Pixel4.jsonl.
func deviceLogPath(out string, d int, name string) string {
	ext := filepath.Ext(out)
	return fmt.Sprintf("%s.d%d-%s%s", strings.TrimSuffix(out, ext), d, name, ext)
}

// runFleet shards the replay across the -fleet devices: per-device shard
// logs stream to sibling files of -o (flat memory, like the single-device
// DiscardLog path), and the merged fleet log (sequential record order) is
// produced by a streaming k-way merge of those files into -o itself.
func runFleet(stdout io.Writer, m *graph.Model, popts pipeline.Options, images []*imaging.Image,
	fleetSpec, shardPolicy string, monOpts []core.MonitorOption, format core.LogFormat, out string,
	up uploadOptions) error {
	devs, err := runner.ParseFleetSpec(fleetSpec)
	if err != nil {
		return err
	}
	policy, err := runner.ParseShardPolicy(shardPolicy)
	if err != nil {
		return err
	}
	paths := make([]string, len(devs))
	files := make([]*os.File, len(devs))
	sinks := make([]core.LogSink, len(devs))
	remotes := make([]*ingest.RemoteSink, len(devs))
	for d := range devs {
		paths[d] = deviceLogPath(out, d, devs[d].Name())
		if files[d], err = os.Create(paths[d]); err != nil {
			return err
		}
		// Closed explicitly after the replay flushes (the merge reopens the
		// files); a one-shot CLI leaves earlier error paths to process exit.
		if sinks[d], err = core.NewLogSink(files[d], format); err != nil {
			return err
		}
		// Each device streams to its own collector session, named like its
		// shard-log file suffix (d0-Pixel4, ...), so the daemon's /fleet
		// report lines up with the local shard logs.
		devs[d].Sink, remotes[d], err = up.wrap(sinks[d], fmt.Sprintf("d%d-%s", d, devs[d].Name()))
		if err != nil {
			return err
		}
	}
	// DiscardLogs: telemetry lives only in the per-device files, so memory
	// stays flat however long the replay — same contract as the
	// single-device DiscardLog path above.
	_, err = replay.FleetClassification(m, popts, images,
		&runner.Fleet{Devices: devs, Policy: policy, MonitorOptions: monOpts, DiscardLogs: true}, nil)
	if err != nil {
		return err
	}
	for d := range sinks {
		if err := devs[d].Sink.Flush(); err != nil {
			return err
		}
		if err := files[d].Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "edgerun: device %d (%s) wrote %d records (%d bytes, %s) to %s\n",
			d, devs[d].Name(), sinks[d].Records(), sinks[d].Bytes(), sinks[d].Format(), paths[d])
		if remotes[d] != nil {
			fmt.Fprintf(stdout, "edgerun: device %d (%s) uploaded to %s: %s\n",
				d, devs[d].Name(), up.url, uploadSummary(remotes[d].Stats()))
		}
	}
	merged, err := mergeShardLogs(paths, format, out)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "edgerun: fleet (%s policy) merged %d records (%d bytes, %s) to %s\n",
		policy.Name(), merged.Records(), merged.Bytes(), merged.Format(), out)
	return nil
}

// mergeShardLogs streams a k-way merge of per-device shard logs into the
// merged log at out. The shard files hold disjoint frame sets, each in
// increasing frame order, so repeatedly draining the stream with the
// smallest next frame reproduces the sequential record order; sequence
// numbers renumber globally. One frame group is in memory at a time.
func mergeShardLogs(paths []string, format core.LogFormat, out string) (core.LogSink, error) {
	type stream struct {
		dec  core.LogDecoder
		next core.Record
		ok   bool
	}
	advance := func(s *stream) error {
		rec, err := s.dec.Next()
		if err == io.EOF {
			s.ok = false
			return nil
		}
		if err != nil {
			return err
		}
		s.next, s.ok = rec, true
		return nil
	}
	streams := make([]*stream, len(paths))
	for i, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		dec, _, err := core.OpenLog(f)
		if err != nil {
			return nil, fmt.Errorf("shard log %s: %w", p, err)
		}
		streams[i] = &stream{dec: dec}
		if err := advance(streams[i]); err != nil {
			return nil, fmt.Errorf("shard log %s: %w", p, err)
		}
	}
	outF, err := os.Create(out)
	if err != nil {
		return nil, err
	}
	defer outF.Close()
	sink, err := core.NewLogSink(outF, format)
	if err != nil {
		return nil, err
	}
	seq := 0
	var recs []core.Record
	for {
		best := -1
		for i, s := range streams {
			if s.ok && (best == -1 || s.next.Frame < streams[best].next.Frame) {
				best = i
			}
		}
		if best == -1 {
			break
		}
		s := streams[best]
		frame := s.next.Frame
		recs = recs[:0]
		for s.ok && s.next.Frame == frame {
			r := s.next
			r.Seq = seq
			seq++
			recs = append(recs, r)
			if err := advance(s); err != nil {
				return nil, err
			}
		}
		if err := sink.WriteFrame(frame, recs); err != nil {
			return nil, err
		}
	}
	if err := sink.Flush(); err != nil {
		return nil, err
	}
	return sink, nil
}
