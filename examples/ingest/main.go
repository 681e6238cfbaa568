// Ingest: stream a fleet replay's telemetry to a live collector and read
// the fleet report off the service — the paper's device→cloud upload half.
//
// Everything in the other examples is offline: logs land in files (or
// memory) and validation runs afterwards. Real deployments upload — the
// ML-EXray architecture is edge instrumentation plus a cloud-side analysis
// service. This example boots the ingestion collector in-process (the same
// handler cmd/exrayd serves), points each fleet device's sink at it, and
// replays: telemetry streams over HTTP in binary chunks (gzip-compressed
// here, as a bandwidth-constrained device would; plain is the cheaper default),
// the collector validates every session incrementally as frames arrive, and
// the fleet report — identical to running FleetValidate offline on stored
// logs — is ready the moment the replay ends. No log files anywhere —
// except the collector's own write-ahead log: the example runs the
// collector with a data directory (exrayd's -data-dir), then "crashes" it
// and boots a fresh one over the same directory to show exact recovery —
// the recovered fleet report is byte-identical to the pre-crash one.
//
//	go run ./examples/ingest
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"

	"mlexray"
	"mlexray/internal/datasets"
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
	images := replay.Images(datasets.SynthImageNet(5555, 24))
	monOpts := []mlexray.MonitorOption{
		mlexray.WithCaptureMode(mlexray.CaptureFull), mlexray.WithPerLayer(true),
	}

	// --- reference replay: what uploads validate against ---
	ref, err := replay.Classification(entry.Mobile,
		pipeline.Options{Resolver: ops.NewReference(ops.Fixed())}, images,
		mlexray.ReplayOptions{MonitorOptions: monOpts}, nil)
	if err != nil {
		log.Fatal(err)
	}

	// --- the collector: in-process here; `exrayd -ref ref.jsonl` in prod.
	// DataDir makes it durable: every accepted chunk is fsynced to a
	// per-session write-ahead segment before the ack.
	walDir, err := os.MkdirTemp("", "exray-wal-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(walDir)
	srv, err := mlexray.NewIngestServer(mlexray.IngestServerOptions{Ref: ref, DataDir: walDir})
	if err != nil {
		log.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	fmt.Printf("collector listening on %s (WAL under %s)\n\n", ts.URL, walDir)

	// --- the fleet: every device streams straight to the collector ---
	devs, err := mlexray.ParseFleetSpec("Pixel4:2:4,Pixel3:1:2,Emulator-x86:1:2")
	if err != nil {
		log.Fatal(err)
	}
	sinks := make([]*mlexray.RemoteSink, len(devs))
	for d := range devs {
		name := fmt.Sprintf("d%d-%s", d, devs[d].Name())
		sinks[d], err = mlexray.NewRemoteSink(mlexray.RemoteSinkOptions{
			URL: ts.URL, Device: name,
			// Raw payloads are the cheap encoding. Gzip halves the wire
			// (129.9 -> 61.9 KB/frame) for ~29x the client's upload CPU, so
			// it only pays on a constrained uplink: edgerun -upload leaves
			// it off unless -upload-gzip is set.
			Format: mlexray.FormatBinary, Gzip: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		devs[d].Sink = sinks[d]
	}
	fleet := &mlexray.Fleet{
		Devices:        devs,
		Policy:         mlexray.RoundRobin{},
		MonitorOptions: monOpts,
		DiscardLogs:    true, // telemetry lives on the collector, not in memory
	}

	// --- fleet replay with a device-local bug on the Pixel 3 slot ---
	const bugged = 1
	if _, err := replay.FleetClassification(entry.Mobile,
		pipeline.Options{Resolver: ops.NewOptimized(ops.Fixed())}, images, fleet,
		func(dev int, spec mlexray.DeviceSpec, o *pipeline.Options) {
			if dev == bugged {
				o.Bug = pipeline.BugNormalization
			}
		}); err != nil {
		log.Fatal(err)
	}
	for d := range sinks {
		if err := sinks[d].Flush(); err != nil { // ship the final chunks
			log.Fatal(err)
		}
		st := sinks[d].Stats()
		fmt.Printf("d%d-%-12s uploaded %5d records in %d chunks (%7d wire bytes, gzip binary)\n",
			d, devs[d].Name(), st.Records, st.Chunks, st.WireBytes)
	}

	// --- the report is already there: validation happened during upload ---
	fleetReport, err := srv.FleetReport()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fleetReport.Render(os.Stdout)

	// --- the same data over the wire, as a dashboard would read it ---
	resp, err := http.Get(ts.URL + "/devices/d1-Pixel3")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var status struct {
		Records int `json:"records"`
		Frames  int `json:"frames"`
		Report  *mlexray.Report
	}
	if err := json.Unmarshal(body, &status); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nGET /devices/d1-Pixel3: %d records, %d frames, agreement %.0f%%\n",
		status.Records, status.Frames, 100*status.Report.OutputAgreement)

	// --- crash the collector and recover from the write-ahead log ---
	// Every acked chunk is on disk, so dropping the server loses nothing: a
	// fresh collector over the same directory replays the segments through
	// the same validation path and serves the identical fleet report.
	preCrash, err := json.Marshal(fleetReport)
	if err != nil {
		log.Fatal(err)
	}
	ts.Close()
	srv.Close() // no drain, no goodbye: the "crash"

	srv2, err := mlexray.NewIngestServer(mlexray.IngestServerOptions{Ref: ref, DataDir: walDir})
	if err != nil {
		log.Fatal(err)
	}
	rs := srv2.Recovery()
	fmt.Printf("\ncollector restarted: recovered %d sessions (%d chunks, %d records) from the WAL\n",
		rs.Sessions, rs.Chunks, rs.Records)
	recovered, err := srv2.FleetReport()
	if err != nil {
		log.Fatal(err)
	}
	postCrash, err := json.Marshal(recovered)
	if err != nil {
		log.Fatal(err)
	}
	if string(preCrash) == string(postCrash) {
		fmt.Println("recovered fleet report is byte-identical to the pre-crash one")
	} else {
		log.Fatal("recovered fleet report differs from the pre-crash one")
	}
}
