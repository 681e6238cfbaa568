// Binarylog: stream a full-capture replay straight to a binary telemetry
// log, then validate a deployment from the files alone.
//
// Full per-layer tensor capture is megabytes per frame; the JSONL format
// pays a base64 expansion plus JSON escaping on every payload byte. This
// example streams the edge replay through a binary LogSink (raw little-endian
// payloads, length-prefixed records — a fraction of the encode cost and
// none of the base64 growth), writes the reference log as ordinary JSONL,
// and then reads both back with the auto-detecting reader: Validate neither
// knows nor cares which encoding carried each log.
//
//	go run ./examples/binarylog
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"mlexray"
	"mlexray/internal/datasets"
	"mlexray/internal/imaging"
	"mlexray/internal/ops"
	"mlexray/internal/pipeline"
	"mlexray/internal/replay"
	"mlexray/internal/zoo"
)

func main() {
	entry, err := zoo.Get("mobilenetv2-mini")
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "binarylog")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	images := replay.Images(datasets.SynthImageNet(5555, 6))

	// --- edge replay, streamed to a binary log ---
	edgePath := filepath.Join(dir, "edge.mlxb")
	edgeSink := capture(edgePath, mlexray.FormatBinary, entry, pipeline.Options{
		Resolver: ops.NewOptimized(ops.Fixed()),
		Bug:      pipeline.BugNormalization, // the mistake under investigation
	}, images)

	// --- reference replay, plain JSONL for contrast ---
	refPath := filepath.Join(dir, "ref.jsonl")
	refSink := capture(refPath, mlexray.FormatJSONL, entry, pipeline.Options{
		Resolver: ops.NewReference(ops.Fixed()),
	}, images)

	fmt.Printf("edge log:      %6d records %8d bytes (%s)\n", edgeSink.Records(), edgeSink.Bytes(), edgeSink.Format())
	fmt.Printf("reference log: %6d records %8d bytes (%s)\n", refSink.Records(), refSink.Bytes(), refSink.Format())

	// --- validate straight from the files, formats auto-detected ---
	edgeLog := read(edgePath)
	refLog := read(refPath)
	report, err := mlexray.Validate(edgeLog, refLog, mlexray.DefaultValidateOptions())
	if err != nil {
		log.Fatal(err)
	}
	report.Render(os.Stdout)
}

// capture replays the dataset through the parallel engine with full
// per-layer capture, streaming telemetry to path in the given encoding.
func capture(path string, format mlexray.LogFormat, entry *zoo.Entry,
	popts pipeline.Options, images []*imaging.Image) mlexray.LogSink {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	sink, err := mlexray.NewLogSink(f, format)
	if err != nil {
		log.Fatal(err)
	}
	_, err = replay.Classification(entry.Mobile, popts, images, mlexray.ReplayOptions{
		MonitorOptions: []mlexray.MonitorOption{
			mlexray.WithCaptureMode(mlexray.CaptureFull), mlexray.WithPerLayer(true),
		},
		Sink:       sink,
		DiscardLog: true, // telemetry lives on disk, not in memory
	}, nil)
	if err != nil {
		log.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		log.Fatal(err)
	}
	return sink
}

// read loads a telemetry log, auto-detecting its encoding.
func read(path string) *mlexray.Log {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	l, err := mlexray.ReadLog(f)
	if err != nil {
		log.Fatal(err)
	}
	return l
}
