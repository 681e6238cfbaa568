package replay

import (
	"bytes"
	"strings"
	"testing"

	"mlexray/internal/core"
	"mlexray/internal/datasets"
	"mlexray/internal/device"
	"mlexray/internal/imaging"
	"mlexray/internal/ops"
	"mlexray/internal/pipeline"
	"mlexray/internal/runner"
	"mlexray/internal/zoo"
)

// fleetMonOpts is the offline-validation capture configuration fleet
// validation expects: full tensors plus per-layer records for drift rollups.
var fleetMonOpts = []core.MonitorOption{core.WithCaptureMode(core.CaptureFull), core.WithPerLayer(true)}

// TestFleetValidateFlagsBuggedDevice is the fleet-validation acceptance pin:
// a preprocessing bug injected into exactly one device of a three-device
// fleet must flag that device — and only that device — in the FleetReport,
// with its divergent frames confined to its own shard.
func TestFleetValidateFlagsBuggedDevice(t *testing.T) {
	const frames = 24
	const bugged = 0 // the Pixel4 slot — the largest shard — carries the bug
	entry, err := zoo.Get("mobilenetv2-mini")
	if err != nil {
		t.Fatal(err)
	}
	images := Images(datasets.SynthImageNet(5555, frames))

	fleet := &runner.Fleet{
		Devices: []runner.DeviceSpec{
			{Profile: device.Pixel4(), Workers: 2, BatchFrames: 4},
			{Profile: device.Pixel3(), Workers: 1, BatchFrames: 2},
			{Profile: device.EmulatorX86(), Workers: 1, BatchFrames: 2},
		},
		Policy:         runner.RoundRobin{},
		MonitorOptions: fleetMonOpts,
	}
	res, err := FleetClassification(entry.Mobile, pipeline.Options{Resolver: ops.NewOptimized(ops.Fixed())},
		images, fleet, func(dev int, spec runner.DeviceSpec, o *pipeline.Options) {
			if dev == bugged {
				o.Bug = pipeline.BugNormalization
			}
		})
	if err != nil {
		t.Fatal(err)
	}

	// Reference: the correct pipeline over the full frame range.
	ref, err := Classification(entry.Mobile, pipeline.Options{Resolver: ops.NewReference(ops.Fixed())},
		images, runner.Options{MonitorOptions: fleetMonOpts}, nil)
	if err != nil {
		t.Fatal(err)
	}

	shards := make([]core.DeviceShardLog, len(fleet.Devices))
	for d, spec := range fleet.Devices {
		shards[d] = core.DeviceShardLog{Device: spec.Name(), Log: res.DeviceLogs[d]}
	}
	rep, err := core.FleetValidate(shards, ref, core.DefaultValidateOptions())
	if err != nil {
		t.Fatal(err)
	}

	if len(rep.Flagged) != 1 || rep.Flagged[0] != fleet.Devices[bugged].Name() {
		t.Fatalf("flagged devices = %v, want exactly [%s]", rep.Flagged, fleet.Devices[bugged].Name())
	}
	owner := map[int]int{} // 1-based frame tag -> device
	for d, ranges := range res.Assignment {
		for _, r := range ranges {
			for g := r.Start; g < r.End; g++ {
				owner[g+1] = d
			}
		}
	}
	for d, dr := range rep.Devices {
		if (d == bugged) != dr.Flagged {
			t.Errorf("device %s flagged=%v, want %v", dr.Device, dr.Flagged, d == bugged)
		}
		if d == bugged {
			if dr.OutputAgreement >= 0.98 {
				t.Errorf("bugged device agreement %.2f, want < 0.98", dr.OutputAgreement)
			}
			if len(dr.Divergent) == 0 {
				t.Error("bugged device reports no divergent frames")
			}
			for _, f := range dr.Divergent {
				if owner[f] != bugged {
					t.Errorf("divergent frame %d owned by device %d, not the bugged device", f, owner[f])
				}
			}
			if dr.Layers == 0 || dr.MeanNRMSE <= 0 {
				t.Errorf("bugged device drift rollup empty: layers=%d meanNRMSE=%f", dr.Layers, dr.MeanNRMSE)
			}
		} else if dr.OutputAgreement < 0.98 {
			t.Errorf("healthy device %s agreement %.2f", dr.Device, dr.OutputAgreement)
		}
		if dr.MeanModeledNs <= 0 {
			t.Errorf("device %s has no modeled-latency rollup", dr.Device)
		}
	}
	if rep.FleetAgreement >= 1 {
		t.Errorf("fleet agreement %.2f should reflect the bugged shard", rep.FleetAgreement)
	}
	if len(rep.DivergentFrames) == 0 {
		t.Error("no cross-device divergent frames reported")
	}

	var buf bytes.Buffer
	rep.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "DIVERGES") || !strings.Contains(out, fleet.Devices[bugged].Name()) {
		t.Errorf("rendered report misses the flagged device:\n%s", out)
	}
}

// TestFleetValidateHealthyFleet checks the negative: an all-correct fleet
// flags nothing and reports full agreement.
func TestFleetValidateHealthyFleet(t *testing.T) {
	const frames = 8
	entry, err := zoo.Get("mobilenetv2-mini")
	if err != nil {
		t.Fatal(err)
	}
	images := Images(datasets.SynthImageNet(5555, frames))
	fleet := &runner.Fleet{
		Devices: []runner.DeviceSpec{
			{Profile: device.Pixel4(), Workers: 2, BatchFrames: 2},
			{Profile: device.Pixel3(), Workers: 1, BatchFrames: 1},
		},
		Policy:         runner.Weighted{},
		MonitorOptions: fleetMonOpts,
	}
	res, err := FleetClassification(entry.Mobile, pipeline.Options{Resolver: ops.NewReference(ops.Fixed())},
		images, fleet, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Classification(entry.Mobile, pipeline.Options{Resolver: ops.NewReference(ops.Fixed())},
		images, runner.Options{MonitorOptions: fleetMonOpts}, nil)
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]core.DeviceShardLog, len(fleet.Devices))
	for d, spec := range fleet.Devices {
		shards[d] = core.DeviceShardLog{Device: spec.Name(), Log: res.DeviceLogs[d]}
	}
	rep, err := core.FleetValidate(shards, ref, core.DefaultValidateOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Flagged) != 0 {
		t.Errorf("healthy fleet flagged %v", rep.Flagged)
	}
	if rep.FleetAgreement != 1 {
		t.Errorf("healthy fleet agreement %.2f, want 1", rep.FleetAgreement)
	}
	if len(rep.DivergentFrames) != 0 {
		t.Errorf("healthy fleet reports divergent frames %v", rep.DivergentFrames)
	}
}

// TestFleetDetectionFlagsBuggedDevice: the detection fleet isolates a
// device-local bug like classification does — inject into Pixel3 through the
// perDevice hook and cross-validate against a reference. (That its shard logs
// merge to the sequential record order is TestReplayDeterminism's.)
func TestFleetDetectionFlagsBuggedDevice(t *testing.T) {
	const frames = 12
	entry, err := zoo.Get("ssd-mini")
	if err != nil {
		t.Fatal(err)
	}
	samples := datasets.SynthCOCO(6666, frames)
	images := make([]*imaging.Image, len(samples))
	for i := range samples {
		images[i] = samples[i].Image
	}
	popts := pipeline.Options{Resolver: ops.NewOptimized(ops.Fixed())}

	fleet := &runner.Fleet{
		Devices: []runner.DeviceSpec{
			{Profile: device.Pixel4(), Workers: 2, BatchFrames: 4},
			{Profile: device.Pixel3(), Workers: 1, BatchFrames: 1},
		},
		Policy:         runner.RoundRobin{},
		MonitorOptions: fleetMonOpts,
	}
	bugRes, err := FleetDetection(entry.Mobile, popts, images, fleet,
		func(dev int, spec runner.DeviceSpec, o *pipeline.Options) {
			if dev == 1 {
				o.Bug = pipeline.BugNormalization
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Detection(entry.Mobile, pipeline.Options{Resolver: ops.NewReference(ops.Fixed())}, images,
		runner.Options{Workers: 2, BatchFrames: 2, MonitorOptions: fleetMonOpts}, nil)
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]core.DeviceShardLog, len(fleet.Devices))
	for d, spec := range fleet.Devices {
		shards[d] = core.DeviceShardLog{Device: spec.Name(), Log: bugRes.DeviceLogs[d]}
	}
	rep, err := core.FleetValidate(shards, ref, core.DefaultValidateOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Flagged) != 1 || rep.Flagged[0] != "Pixel3" {
		t.Errorf("flagged %v, want exactly the bugged Pixel3", rep.Flagged)
	}
}
