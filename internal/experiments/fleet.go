package experiments

import (
	"fmt"
	"io"

	"mlexray/internal/core"
	"mlexray/internal/datasets"
	"mlexray/internal/device"
	"mlexray/internal/imaging"
	"mlexray/internal/ops"
	"mlexray/internal/pipeline"
	"mlexray/internal/replay"
	"mlexray/internal/runner"
	"mlexray/internal/zoo"
)

// FleetRow is one device's row of the fleet replay table: its share of the
// sharded frame range plus the FleetReport rollups (agreement with the
// reference, mean per-layer drift, modeled latency) and the cross-device
// divergence verdict.
type FleetRow struct {
	Device        string
	Workers       int
	Batch         int
	Frames        int
	SharePct      float64
	Agreement     float64
	MeanNRMSE     float64
	MeanModeledMs float64
	Flagged       bool
}

// fleetDevices is the demo fleet every task shares: a batched two-worker
// Pixel 4, a Pixel 3 (the slot the bug is injected into) and the x86
// emulator, dealt frames round-robin.
func fleetDevices() []runner.DeviceSpec {
	return []runner.DeviceSpec{
		{Profile: device.Pixel4(), Workers: 2, BatchFrames: 4},
		{Profile: device.Pixel3(), Workers: 1, BatchFrames: 2},
		{Profile: device.EmulatorX86(), Workers: 1, BatchFrames: 2},
	}
}

// Fleet runs the heterogeneous-fleet validation demo for the given task
// ("classification" — MobileNet-v2 over SynthImageNet — or "detection" —
// the SSD detector over SynthCOCO; empty means classification): a
// three-profile fleet shards one replay round-robin, with a normalization
// bug injected into the Pixel 3's pipeline only — the device-local fault
// class fleet validation exists to isolate. Per-device shard logs
// cross-validate against a sequential reference replay; the returned rows
// carry each device's rollups, and exactly the bugged device comes back
// flagged.
func Fleet(frames int, task string) ([]FleetRow, error) {
	if frames <= 0 {
		frames = 24
	}
	const bugged = 1 // the Pixel 3 slot
	monOpts := []core.MonitorOption{core.WithCaptureMode(core.CaptureFull), core.WithPerLayer(true)}
	fleet := &runner.Fleet{
		Devices:        fleetDevices(),
		Policy:         runner.RoundRobin{},
		MonitorOptions: monOpts,
	}
	perDevice := func(dev int, spec runner.DeviceSpec, o *pipeline.Options) {
		if dev == bugged {
			o.Bug = pipeline.BugNormalization
		}
	}
	edgeOpts := pipeline.Options{Resolver: fixedOptimized()}
	refPopts := pipeline.Options{Resolver: ops.NewReference(ops.Fixed())}
	refRopts := sweepOptions(monOpts)

	var res *runner.FleetResult
	var ref *core.Log
	switch task {
	case "", "classification":
		entry, err := zoo.Get("mobilenetv2-mini")
		if err != nil {
			return nil, err
		}
		images := replay.Images(datasets.SynthImageNet(5555, frames))
		if res, err = replay.FleetClassification(entry.Mobile, edgeOpts, images, fleet, perDevice); err != nil {
			return nil, err
		}
		if ref, err = replay.Classification(entry.Mobile, refPopts, images, refRopts, nil); err != nil {
			return nil, err
		}
	case "detection":
		entry, err := zoo.Get("ssd-mini")
		if err != nil {
			return nil, err
		}
		samples := datasets.SynthCOCO(6666, frames)
		images := make([]*imaging.Image, len(samples))
		for i := range samples {
			images[i] = samples[i].Image
		}
		if res, err = replay.FleetDetection(entry.Mobile, edgeOpts, images, fleet, perDevice); err != nil {
			return nil, err
		}
		if ref, err = replay.Detection(entry.Mobile, refPopts, images, refRopts, nil); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("experiments: unknown fleet task %q (want classification or detection)", task)
	}

	shards := make([]core.DeviceShardLog, len(fleet.Devices))
	for d, spec := range fleet.Devices {
		shards[d] = core.DeviceShardLog{Device: spec.Name(), Log: res.DeviceLogs[d]}
	}
	rep, err := core.FleetValidate(shards, ref, core.DefaultValidateOptions())
	if err != nil {
		return nil, err
	}

	rows := make([]FleetRow, len(rep.Devices))
	for d, dr := range rep.Devices {
		spec := fleet.Devices[d]
		rows[d] = FleetRow{
			Device:        dr.Device,
			Workers:       spec.Workers,
			Batch:         spec.BatchFrames,
			Frames:        res.Frames(d),
			SharePct:      100 * float64(res.Frames(d)) / float64(frames),
			Agreement:     dr.OutputAgreement,
			MeanNRMSE:     dr.MeanNRMSE,
			MeanModeledMs: dr.MeanModeledNs / 1e6,
			Flagged:       dr.Flagged,
		}
	}
	return rows, nil
}

// RenderFleet prints the fleet replay table.
func RenderFleet(w io.Writer, task string, rows []FleetRow) {
	if task == "" {
		task = "classification"
	}
	fmt.Fprintf(w, "Fleet replay (%s) — heterogeneous device sharding with per-device validation\n", task)
	fmt.Fprintf(w, "(normalization bug injected into the Pixel3 pipeline only)\n")
	fmt.Fprintf(w, "%-14s %7s %5s %6s %6s %9s %8s %10s %8s\n",
		"device", "workers", "batch", "frames", "share", "agreement", "nRMSE", "modeled-ms", "flagged")
	for _, r := range rows {
		mark := " "
		if r.Flagged {
			mark = "X"
		}
		fmt.Fprintf(w, "%-14s %7d %5d %6d %5.1f%% %9.2f %8.4f %10.2f %8s\n",
			r.Device, r.Workers, r.Batch, r.Frames, r.SharePct, r.Agreement, r.MeanNRMSE, r.MeanModeledMs, mark)
	}
}
