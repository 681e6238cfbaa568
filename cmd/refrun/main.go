// Command refrun executes the *reference pipeline* for a zoo model — the
// correct preprocessing derived from the model's training conventions, the
// float model, the reference op resolver with repaired kernels — over the
// same synthetic data edgerun uses, and writes the reference telemetry log.
//
// Like edgerun, the replay shards across -parallel workers (each running
// -batch frames per batched interpreter invoke) with telemetry streamed to
// disk in deterministic frame order, and -log-format selects the jsonl or
// binary telemetry encoding.
//
// Usage:
//
//	refrun -model mobilenetv2-mini -o ref.jsonl
//	refrun -model mobilenetv2-mini -log-format binary -o ref.mlxb
//	refrun -model mobilenetv2-mini -parallel 8 -batch 32 -o ref.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"mlexray/internal/core"
	"mlexray/internal/datasets"
	"mlexray/internal/ops"
	"mlexray/internal/pipeline"
	"mlexray/internal/replay"
	"mlexray/internal/runner"
	"mlexray/internal/zoo"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "refrun:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("refrun", flag.ContinueOnError)
	var (
		model    = fs.String("model", "mobilenetv2-mini", "zoo model name (classification)")
		frames   = fs.Int("frames", 8, "frames to process")
		perLayer = fs.Bool("perlayer", true, "capture per-layer outputs")
		parallel = fs.Int("parallel", 0, "replay workers (0 = all cores)")
		batch    = fs.Int("batch", 8, "frames per batched interpreter invoke (1 = frame at a time)")
		logFmt   = fs.String("log-format", "jsonl", "telemetry log encoding: jsonl|binary")
		out      = fs.String("o", "ref.jsonl", "output log path")
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

	entry, err := zoo.Get(*model)
	if err != nil {
		return err
	}
	images := replay.Images(datasets.SynthImageNet(5555, *frames))
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	sink, err := core.NewLogSink(f, format)
	if err != nil {
		return err
	}
	_, err = replay.Classification(entry.Mobile, pipeline.Options{
		Resolver: ops.NewReference(ops.Fixed()),
	}, images, runner.Options{
		Workers:        *parallel,
		BatchFrames:    *batch,
		MonitorOptions: []core.MonitorOption{core.WithCaptureMode(core.CaptureFull), core.WithPerLayer(*perLayer)},
		Sink:           sink,
		DiscardLog:     true,
	}, nil)
	if err != nil {
		return err
	}
	if err := sink.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "refrun: wrote %d records (%d bytes, %s) to %s\n", sink.Records(), sink.Bytes(), sink.Format(), *out)
	return nil
}
