package runner

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
	"mlexray/internal/zoo"
)

// fleetDevices is the heterogeneous test fleet: three distinct profiles
// with different worker counts and batch sizes, so every composition axis
// (device × workers × dispatch batching × execution batching) is exercised
// at once.
func fleetDevices() []DeviceSpec {
	return []DeviceSpec{
		{Profile: device.Pixel4(), Workers: 2, BatchFrames: 4},
		{Profile: device.Pixel3(), Workers: 1, BatchFrames: 1},
		{Profile: device.EmulatorX86(), Workers: 2, BatchFrames: 2},
	}
}

// ownerOf inverts a shard assignment: frame -> device index.
func ownerOf(t *testing.T, frames int, asn [][]Range) []int {
	t.Helper()
	owner := make([]int, frames)
	for i := range owner {
		owner[i] = -1
	}
	for d, ranges := range asn {
		for _, r := range ranges {
			for g := r.Start; g < r.End; g++ {
				if owner[g] != -1 {
					t.Fatalf("frame %d assigned to devices %d and %d", g, owner[g], d)
				}
				owner[g] = d
			}
		}
	}
	for g, d := range owner {
		if d == -1 {
			t.Fatalf("frame %d unassigned", g)
		}
	}
	return owner
}

// sequentialFleetLog replays the frames in order through one shared
// monitor, routing each frame to the classifier of its assigned device —
// the single-threaded ground truth the fleet engine must reproduce.
func sequentialFleetLog(t *testing.T, devs []DeviceSpec, owner []int, frames int) *core.Log {
	t.Helper()
	entry, err := zoo.Get("mobilenetv2-mini")
	if err != nil {
		t.Fatal(err)
	}
	samples := datasets.SynthImageNet(5555, frames)
	mon := core.NewMonitor(monOpts...)
	cls := make([]*pipeline.Classifier, len(devs))
	for d, spec := range devs {
		cls[d], err = pipeline.NewClassifier(entry.Mobile, pipeline.Options{
			Resolver: ops.NewOptimized(ops.Fixed()), Device: spec.Profile, Monitor: mon,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for g := 0; g < frames; g++ {
		if _, _, err := cls[owner[g]].Classify(samples[g].Image); err != nil {
			t.Fatal(err)
		}
	}
	return mon.Log()
}

// fleetLog replays the same frames through the fleet scheduler.
func fleetLog(t *testing.T, fleet *Fleet, frames int) *FleetResult {
	t.Helper()
	entry, err := zoo.Get("mobilenetv2-mini")
	if err != nil {
		t.Fatal(err)
	}
	samples := datasets.SynthImageNet(5555, frames)
	res, err := fleet.ReplayBatched(frames, func(dev int, spec DeviceSpec, mon *core.Monitor) (ProcessBatchFunc, error) {
		popts := pipeline.Options{Resolver: ops.NewOptimized(ops.Fixed()), Device: spec.Profile, Monitor: mon}
		if spec.BatchFrames > 1 {
			bc, err := pipeline.NewBatchClassifier(entry.Mobile, spec.BatchFrames, popts)
			if err != nil {
				return nil, err
			}
			return func(start, end int) error {
				imgs := make([]*imaging.Image, end-start)
				for i := range imgs {
					imgs[i] = samples[start+i].Image
				}
				_, err := bc.ClassifyBatch(imgs)
				return err
			}, nil
		}
		cl, err := pipeline.NewClassifier(entry.Mobile, popts)
		if err != nil {
			return nil, err
		}
		return PerFrame(mon, func(g int) error {
			_, _, err := cl.Classify(samples[g].Image)
			return err
		}), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFleetMatchesSequentialAssignment is the fleet determinism contract
// (and the tentpole acceptance criterion): for every shard policy, the
// merge of the per-device shard logs is byte-identical — after wall-clock
// normalization — to a sequential replay routing each frame through its
// assigned device's pipeline.
func TestFleetMatchesSequentialAssignment(t *testing.T) {
	const frames = 12
	for _, policy := range []ShardPolicy{RoundRobin{}, Weighted{}, Contiguous{}, RoundRobin{Chunk: 3}} {
		t.Run(policy.Name(), func(t *testing.T) {
			devs := fleetDevices()
			fleet := &Fleet{Devices: devs, Policy: policy, MonitorOptions: monOpts}
			res := fleetLog(t, fleet, frames)
			owner := ownerOf(t, frames, res.Assignment)

			seq := sequentialFleetLog(t, devs, owner, frames)
			normalizeWallClock(seq)
			want := logBytes(t, seq)

			merged := core.MergeByFrame(res.DeviceLogs...)
			normalizeWallClock(merged)
			if got := logBytes(t, merged); !bytes.Equal(got, want) {
				t.Errorf("merged device shard logs differ from sequential replay (%d vs %d bytes)", len(got), len(want))
			}
			normalizeWallClock(res.Merged)
			if got := logBytes(t, res.Merged); !bytes.Equal(got, want) {
				t.Errorf("FleetResult.Merged differs from sequential replay (%d vs %d bytes)", len(got), len(want))
			}
		})
	}
}

// TestFleetPerDeviceSinks checks that per-device sinks stream exactly each
// device's shard log.
func TestFleetPerDeviceSinks(t *testing.T) {
	const frames = 8
	devs := fleetDevices()
	bufs := make([]bytes.Buffer, len(devs))
	sinks := make([]*core.JSONLSink, len(devs))
	for d := range devs {
		sinks[d] = core.NewJSONLSink(&bufs[d])
		devs[d].Sink = sinks[d]
	}
	fleet := &Fleet{Devices: devs, Policy: RoundRobin{}, MonitorOptions: monOpts}
	res := fleetLog(t, fleet, frames)
	for d := range devs {
		if err := sinks[d].Flush(); err != nil {
			t.Fatal(err)
		}
		if got, want := sinks[d].Records(), len(res.DeviceLogs[d].Records); got != want {
			t.Errorf("device %d sink wrote %d records, shard log has %d", d, got, want)
		}
		if !bytes.Equal(bufs[d].Bytes(), logBytes(t, res.DeviceLogs[d])) {
			t.Errorf("device %d streamed shard log differs from in-memory shard log", d)
		}
		readBack, err := core.ReadLog(bytes.NewReader(bufs[d].Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if len(readBack.Records) != len(res.DeviceLogs[d].Records) {
			t.Errorf("device %d sink log reads back %d records, want %d", d, len(readBack.Records), len(res.DeviceLogs[d].Records))
		}
	}

	// With DiscardLogs every device's shard lends its captures: the streams,
	// JSONL and MLXB, are still Log.Write of the in-memory shard logs.
	for _, format := range []core.LogFormat{core.FormatJSONL, core.FormatBinary} {
		devs := fleetDevices()
		bufs := make([]bytes.Buffer, len(devs))
		sinks := make([]core.LogSink, len(devs))
		for d := range devs {
			var err error
			if sinks[d], err = core.NewLogSink(&bufs[d], format); err != nil {
				t.Fatal(err)
			}
			devs[d].Sink = sinks[d]
		}
		fleetLog(t, &Fleet{Devices: devs, Policy: RoundRobin{}, MonitorOptions: monOpts, DiscardLogs: true}, frames)
		for d := range devs {
			if err := sinks[d].Flush(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(reencoded(t, bufs[d].Bytes(), format), encoded(t, res.DeviceLogs[d], format)) {
				t.Errorf("%v device %d: lent shard streamed a different log than the in-memory shard log", format, d)
			}
		}
	}
}

// TestShardPolicies pins the assignment shapes: full disjoint cover for
// every policy, interleaving for round-robin, throughput-proportional
// shares for weighted, single spans for contiguous.
func TestShardPolicies(t *testing.T) {
	devs := []DeviceSpec{
		{Profile: device.Pixel4GPU(), Workers: 1, BatchFrames: 2},
		{Profile: device.EmulatorX86(), Workers: 1, BatchFrames: 2},
	}
	const frames = 64

	for _, policy := range []ShardPolicy{RoundRobin{}, Weighted{}, Contiguous{}} {
		asn := policy.Assign(frames, devs)
		if err := checkAssignment(frames, len(devs), asn); err != nil {
			t.Errorf("%s: invalid assignment: %v", policy.Name(), err)
		}
	}

	// Weighted: the GPU profile models far higher throughput than the x86
	// emulator, so it must take the bulk of the frames.
	asn := Weighted{}.Assign(frames, devs)
	gpu, emu := 0, 0
	for _, r := range asn[0] {
		gpu += r.Len()
	}
	for _, r := range asn[1] {
		emu += r.Len()
	}
	if gpu <= emu {
		t.Errorf("weighted policy gave the GPU %d frames and the emulator %d; want GPU > emulator", gpu, emu)
	}

	// RoundRobin alternates chunks: both devices get about half, in more
	// than one range each.
	asn = RoundRobin{}.Assign(frames, devs)
	if len(asn[0]) < 2 || len(asn[1]) < 2 {
		t.Errorf("round-robin produced %d and %d ranges; want interleaving", len(asn[0]), len(asn[1]))
	}

	// Contiguous: one span per device.
	asn = Contiguous{}.Assign(frames, devs)
	for d, ranges := range asn {
		if len(ranges) != 1 {
			t.Errorf("contiguous device %d has %d ranges, want 1", d, len(ranges))
		}
	}
}

// TestFleetErrors covers the loud-failure paths: empty fleet, negative
// frames, DiscardLogs without sinks, a policy that loses frames, and a nil
// worker factory.
func TestFleetErrors(t *testing.T) {
	noop := func(dev int, spec DeviceSpec, mon *core.Monitor) (ProcessBatchFunc, error) {
		return func(int, int) error { return nil }, nil
	}
	if _, err := (&Fleet{}).ReplayBatched(4, noop); err == nil || !strings.Contains(err.Error(), "no devices") {
		t.Errorf("empty fleet: %v", err)
	}
	fleet := &Fleet{Devices: []DeviceSpec{{Profile: device.Pixel4()}}}
	if _, err := fleet.ReplayBatched(-1, noop); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Errorf("negative frames: %v", err)
	}
	bad := &Fleet{Devices: []DeviceSpec{{Profile: device.Pixel4()}}, Policy: dropPolicy{}}
	if _, err := bad.ReplayBatched(4, noop); err == nil || !strings.Contains(err.Error(), "covered") {
		t.Errorf("lossy policy: %v", err)
	}
	discard := &Fleet{Devices: []DeviceSpec{{Profile: device.Pixel4()}}, DiscardLogs: true}
	if _, err := discard.ReplayBatched(4, noop); err == nil || !strings.Contains(err.Error(), "Sink") {
		t.Errorf("DiscardLogs without sink: %v", err)
	}
	// A nil factory used to panic inside a device goroutine, killing the
	// process; it is refused before any device starts.
	if _, err := fleet.ReplayBatched(4, nil); err == nil || err.Error() != "runner: nil worker factory" {
		t.Errorf("nil factory: %v", err)
	}
}

// dropPolicy loses the last frame — checkAssignment must reject it.
type dropPolicy struct{}

func (dropPolicy) Name() string { return "drop" }
func (dropPolicy) Assign(frames int, devs []DeviceSpec) [][]Range {
	out := make([][]Range, len(devs))
	if frames > 1 {
		out[0] = []Range{{0, frames - 1}}
	}
	return out
}

func TestParseFleetSpec(t *testing.T) {
	devs, err := ParseFleetSpec("Pixel4:2,Pixel3:1:4, Emulator-x86")
	if err != nil {
		t.Fatal(err)
	}
	if len(devs) != 3 {
		t.Fatalf("parsed %d devices, want 3", len(devs))
	}
	if devs[0].Profile.Name != "Pixel4" || devs[0].Workers != 2 || devs[0].BatchFrames != 1 {
		t.Errorf("entry 0 = %+v", devs[0])
	}
	if devs[1].Profile.Name != "Pixel3" || devs[1].Workers != 1 || devs[1].BatchFrames != 4 {
		t.Errorf("entry 1 = %+v", devs[1])
	}
	if devs[2].Profile.Name != "Emulator-x86" || devs[2].Workers != 1 {
		t.Errorf("entry 2 = %+v", devs[2])
	}
	for _, bad := range []string{"", "NoSuchDevice:1", "Pixel4:0", "Pixel4:-2", "Pixel4:1:0", "Pixel4:1:2:3", "Pixel4:x"} {
		if _, err := ParseFleetSpec(bad); err == nil {
			t.Errorf("spec %q parsed without error", bad)
		}
	}
}
