package core

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"mlexray/internal/tensor"
)

// streamFrames feeds a log's records frame group by frame group (the shape
// an ingest session sees: one frame per sink write).
func streamFrames(t *testing.T, v *StreamValidator, l *Log) {
	t.Helper()
	start := 0
	for start < len(l.Records) {
		end := start
		for end < len(l.Records) && l.Records[end].Frame == l.Records[start].Frame {
			end++
		}
		if err := v.ConsumeFrame(l.Records[start].Frame, l.Records[start:end]); err != nil {
			t.Fatalf("consume frame %d: %v", l.Records[start].Frame, err)
		}
		start = end
	}
}

// driftedLogs builds an edge/reference pair with a drift spike from layer
// "dw1" on and disagreeing outputs, so the full validation flow engages:
// agreement below threshold, per-layer analysis, suspects and spike.
func driftedLogs(frames int) (edge, ref *Log) {
	layers := []string{"conv1", "dw1", "conv2"}
	opTypes := []string{"Conv2D", "DepthwiseConv2D", "Conv2D"}
	ref = buildLayerLog(frames, layers, opTypes, func(f, l, i int) float32 {
		return float32(f + l + i)
	})
	edge = buildLayerLog(frames, layers, opTypes, func(f, l, i int) float32 {
		v := float32(f + l + i)
		if l >= 1 {
			v += 50
		}
		return v
	})
	flipOutputs(edge)
	return edge, ref
}

// flipOutputs moves every model output's argmax, so agreement with the
// unflipped log drops to 0.
func flipOutputs(edge *Log) {
	for i := range edge.Records {
		if edge.Records[i].Key == KeyModelOutput {
			out := tensor.New(tensor.F32, 4)
			out.F[(edge.Records[i].Frame+1)%4] = 1
			edge.Records[i].EncodeTensor(out, true)
		}
	}
}

// TestStreamValidatorMatchesOffline pins the tentpole contract: a report
// assembled by streaming the log frame by frame is identical — field for
// field and byte for byte once serialized — to the offline Validate over the
// same records.
func TestStreamValidatorMatchesOffline(t *testing.T) {
	edge, ref := driftedLogs(5)
	opts := DefaultValidateOptions()

	want, err := Validate(edge, ref, opts)
	if err != nil {
		t.Fatal(err)
	}

	sv := NewStreamValidator(ref, opts)
	streamFrames(t, sv, edge)
	got, err := sv.Report()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("streaming report differs from offline:\nstream: %+v\noffline: %+v", got, want)
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(got)
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Errorf("serialized reports differ:\nstream: %s\noffline: %s", gotJSON, wantJSON)
	}
}

// TestStreamValidatorRecordAtATime drives the finest-grained arrival order —
// one record per consume, as the ingest decoder delivers them — and also
// checks that mid-stream Report calls neither disturb nor consume state.
func TestStreamValidatorRecordAtATime(t *testing.T) {
	edge, ref := driftedLogs(4)
	opts := DefaultValidateOptions()
	want, err := Validate(edge, ref, opts)
	if err != nil {
		t.Fatal(err)
	}
	sv := NewStreamValidator(ref, opts)
	for i := range edge.Records {
		if err := sv.Consume(edge.Records[i]); err != nil {
			t.Fatal(err)
		}
		if i == len(edge.Records)/2 {
			// A live status probe mid-upload must be non-destructive.
			if _, err := sv.Report(); err != nil {
				t.Fatalf("mid-stream report: %v", err)
			}
		}
	}
	got, err := sv.Report()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("record-at-a-time report differs from offline:\n%+v\nvs\n%+v", got, want)
	}
	if sv.Records() != len(edge.Records) {
		t.Errorf("Records() = %d, want %d", sv.Records(), len(edge.Records))
	}
	if sv.Frames() != edge.Frames() {
		t.Errorf("Frames() = %d, want %d", sv.Frames(), edge.Frames())
	}
}

// TestStreamValidatorIsSink checks the Sink facet: a monitor spilling
// straight into a StreamValidator validates without a log in between.
func TestStreamValidatorIsSink(t *testing.T) {
	edge, ref := driftedLogs(3)
	opts := DefaultValidateOptions()
	want, err := Validate(edge, ref, opts)
	if err != nil {
		t.Fatal(err)
	}
	sv := NewStreamValidator(ref, opts)
	var sink Sink = sv
	streamFrames(t, sv, edge)
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := sv.Report()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("sink-fed report differs from offline")
	}
}

// TestFleetStreamMatchesOfflineInterleaved pins fleet parity under the
// arrival pattern a live collector sees: device streams interleaved frame by
// frame (each device's own frames still in order), with one device carrying
// a fault. The streamed fleet report must equal FleetValidate over the
// complete shard logs.
func TestFleetStreamMatchesOfflineInterleaved(t *testing.T) {
	layers := []string{"conv1", "dw1"}
	opTypes := []string{"Conv2D", "DepthwiseConv2D"}
	const frames = 12
	ref := buildLayerLog(frames, layers, opTypes, func(f, l, i int) float32 {
		return float32(f + l + i)
	})
	// Three devices own disjoint global frame thirds: d0 healthy, d1 drifted
	// + disagreeing, d2 healthy.
	mkShard := func(dev int, bugged bool) *Log {
		full := buildLayerLog(frames, layers, opTypes, func(f, l, i int) float32 {
			v := float32(f + l + i)
			if bugged {
				v += 40
			}
			return v
		})
		shard := &Log{}
		for _, r := range full.Records {
			if r.Frame%3 != dev {
				continue
			}
			if bugged && r.Key == KeyModelOutput {
				out := tensor.New(tensor.F32, 4)
				out.F[(r.Frame+1)%4] = 1
				r.EncodeTensor(out, true)
			}
			shard.Records = append(shard.Records, r)
		}
		return shard
	}
	shards := []DeviceShardLog{
		{Device: "d0-Pixel4", Log: mkShard(0, false)},
		{Device: "d1-Pixel3", Log: mkShard(1, true)},
		{Device: "d2-Emulator", Log: mkShard(2, false)},
	}
	opts := DefaultValidateOptions()
	want, err := FleetValidate(shards, ref, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Flagged) != 1 || want.Flagged[0] != "d1-Pixel3" {
		t.Fatalf("offline fleet report flags %v, want exactly d1-Pixel3", want.Flagged)
	}

	fv, err := NewFleetStreamValidator(ref, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Interleave: deal one record from each device in turn until all streams
	// drain — the worst-case arrival order the collector must tolerate.
	idx := make([]int, len(shards))
	for {
		progressed := false
		for d, shard := range shards {
			if idx[d] >= len(shard.Log.Records) {
				continue
			}
			if err := fv.Session(shard.Device).Consume(shard.Log.Records[idx[d]]); err != nil {
				t.Fatal(err)
			}
			idx[d]++
			progressed = true
		}
		if !progressed {
			break
		}
	}
	got, err := fv.Report()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("streamed fleet report differs from offline:\nstream: %+v\noffline: %+v", got, want)
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(got)
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Errorf("serialized fleet reports differ:\n%s\nvs\n%s", gotJSON, wantJSON)
	}
}

// TestStreamValidatorResetReplay pins the reset/replay seam durable
// collectors build on: after Reset, re-consuming the same stream yields a
// report identical (JSON-byte) to the first pass — the validator is
// indistinguishable from a fresh session while keeping the shared reference
// index. The fleet variant drops all sessions the same way.
func TestStreamValidatorResetReplay(t *testing.T) {
	edge, ref := driftedLogs(5)
	opts := DefaultValidateOptions()

	sv := NewStreamValidator(ref, opts)
	streamFrames(t, sv, edge)
	sv.AddBytes(123)
	first, err := sv.Report()
	if err != nil {
		t.Fatal(err)
	}
	firstJSON, _ := json.Marshal(first)

	sv.Reset()
	if sv.Records() != 0 || sv.Bytes() != 0 {
		t.Errorf("after Reset: records=%d bytes=%d, want 0/0", sv.Records(), sv.Bytes())
	}
	if _, err := sv.Report(); err == nil {
		t.Error("report on a reset validator succeeded (state retained?)")
	}

	// Replay: the same stream through the same validator.
	streamFrames(t, sv, edge)
	replayed, err := sv.Report()
	if err != nil {
		t.Fatal(err)
	}
	replayedJSON, _ := json.Marshal(replayed)
	if !bytes.Equal(firstJSON, replayedJSON) {
		t.Errorf("reset+replay report differs:\nfirst:    %s\nreplayed: %s", firstJSON, replayedJSON)
	}

	// Fleet: Reset drops sessions but keeps the reference; replaying the
	// same device streams rebuilds an identical fleet report.
	fv, err := NewFleetStreamValidator(ref, opts)
	if err != nil {
		t.Fatal(err)
	}
	streamFrames(t, fv.Session("dev-a"), edge)
	streamFrames(t, fv.Session("dev-b"), ref)
	wantRep, err := fv.Report()
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(wantRep)
	fv.Reset()
	if n := len(fv.Sessions()); n != 0 {
		t.Errorf("after fleet Reset: %d sessions, want 0", n)
	}
	streamFrames(t, fv.Session("dev-a"), edge)
	streamFrames(t, fv.Session("dev-b"), ref)
	gotRep, err := fv.Report()
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(gotRep)
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Errorf("fleet reset+replay report differs:\nfirst:    %s\nreplayed: %s", wantJSON, gotJSON)
	}
}

// TestStreamValidatorBoundedMemory pins the memory contract: per-layer
// tensor payloads are folded and dropped, so the retained evidence does not
// grow with the per-layer telemetry volume.
func TestStreamValidatorBoundedMemory(t *testing.T) {
	edge, ref := driftedLogs(64)
	sv := NewStreamValidator(ref, DefaultValidateOptions())
	streamFrames(t, sv, edge)
	retained := 0
	for _, r := range sv.retain.Records {
		retained += len(r.Payload)
	}
	streamed := 0
	for _, r := range edge.Records {
		streamed += len(r.Payload)
	}
	// The stream is dominated by per-layer tensors; retention must hold only
	// the leading boundary window (here: the small model outputs).
	if retained*10 > streamed {
		t.Errorf("retained %d payload bytes of %d streamed — per-layer telemetry leaked into retention", retained, streamed)
	}
	for _, r := range sv.retain.Records {
		if r.Kind == KindTensor && r.Frame > DefaultRetainBoundaryFrames {
			t.Errorf("tensor record %q frame %d retained beyond the boundary window", r.Key, r.Frame)
		}
	}
}

// TestOpenLogGzip pins transparent decompression: gzip-wrapped logs in both
// encodings read back identically to their plain forms, and the reported
// format is the inner log's.
func TestOpenLogGzip(t *testing.T) {
	edge, _ := driftedLogs(3)
	for _, format := range []LogFormat{FormatJSONL, FormatBinary} {
		var plain bytes.Buffer
		if err := edge.Write(&plain, format); err != nil {
			t.Fatal(err)
		}
		var zipped bytes.Buffer
		zw := gzip.NewWriter(&zipped)
		if _, err := zw.Write(plain.Bytes()); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		if zipped.Len() >= plain.Len() {
			t.Errorf("%v: gzip did not shrink the log (%d vs %d bytes)", format, zipped.Len(), plain.Len())
		}
		back, gotFormat, err := ReadLogWithFormat(&zipped)
		if err != nil {
			t.Fatalf("%v: read gzip log: %v", format, err)
		}
		if gotFormat != format {
			t.Errorf("gzip %v detected as %v", format, gotFormat)
		}
		if !reflect.DeepEqual(back.Records, edge.Records) {
			t.Errorf("%v: gzip round trip changed records", format)
		}
	}
}

// TestFleetStreamValidatorRefRequirements pins the constructor errors shared
// with FleetValidate: a reference without model outputs cannot anchor fleet
// validation.
func TestFleetStreamValidatorRefRequirements(t *testing.T) {
	empty := &Log{Records: []Record{{Key: "x", Kind: KindMetric, Value: 1}}}
	if _, err := NewFleetStreamValidator(empty, DefaultValidateOptions()); err == nil {
		t.Error("fleet stream validator accepted a reference without outputs")
	}
	if _, err := FleetValidate([]DeviceShardLog{{Device: "d", Log: empty}}, empty, DefaultValidateOptions()); err == nil {
		t.Error("FleetValidate accepted a reference without outputs")
	}
}

// TestMergeFleetSnapshotsByteIdentical pins the sharded-ingest merge
// contract: splitting the fleet's sessions across N validators (as a
// consistent-hash ring would), exporting each shard's Snapshots through a
// JSON round trip (the /fleet/export wire), and merging them must yield a
// report byte-identical to the single validator that held every session —
// for every shard count, in any concatenation order.
func TestMergeFleetSnapshotsByteIdentical(t *testing.T) {
	layers := []string{"conv1", "dw1"}
	opTypes := []string{"Conv2D", "DepthwiseConv2D"}
	const frames = 12
	ref := buildLayerLog(frames, layers, opTypes, func(f, l, i int) float32 {
		return float32(f + l + i)
	})
	mkShard := func(dev int, bugged bool) *Log {
		full := buildLayerLog(frames, layers, opTypes, func(f, l, i int) float32 {
			v := float32(f + l + i)
			if bugged {
				v += 40
			}
			return v
		})
		shard := &Log{}
		for _, r := range full.Records {
			if r.Frame%4 != dev {
				continue
			}
			if bugged && r.Key == KeyModelOutput {
				out := tensor.New(tensor.F32, 4)
				out.F[(r.Frame+1)%4] = 1
				r.EncodeTensor(out, true)
			}
			shard.Records = append(shard.Records, r)
		}
		return shard
	}
	devices := []DeviceShardLog{
		{Device: "d0-Pixel4", Log: mkShard(0, false)},
		{Device: "d1-Pixel3", Log: mkShard(1, true)},
		{Device: "d2-Emulator", Log: mkShard(2, false)},
		{Device: "d3-Nano", Log: mkShard(3, false)},
	}
	opts := DefaultValidateOptions()

	feed := func(fv *FleetStreamValidator, shards []DeviceShardLog) {
		for _, sh := range shards {
			s := fv.Session(sh.Device)
			for _, r := range sh.Log.Records {
				if err := s.Consume(r); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	single, err := NewFleetStreamValidator(ref, opts)
	if err != nil {
		t.Fatal(err)
	}
	feed(single, devices)
	want, err := single.Report()
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}

	for _, shardCount := range []int{1, 2, 4} {
		// Deal devices across shards round-robin — placement does not matter,
		// only the union of snapshots.
		fvs := make([]*FleetStreamValidator, shardCount)
		for i := range fvs {
			fv, err := NewFleetStreamValidator(ref, opts)
			if err != nil {
				t.Fatal(err)
			}
			fvs[i] = fv
		}
		for d, sh := range devices {
			feed(fvs[d%shardCount], []DeviceShardLog{sh})
		}
		// Concatenate snapshots shard by shard, reversed, through a JSON
		// round trip — the exact wire an aggregator gateway sees.
		var snaps []FleetSessionSnapshot
		for i := shardCount - 1; i >= 0; i-- {
			wire, err := json.Marshal(fvs[i].Snapshots())
			if err != nil {
				t.Fatal(err)
			}
			var back []FleetSessionSnapshot
			if err := json.Unmarshal(wire, &back); err != nil {
				t.Fatal(err)
			}
			snaps = append(snaps, back...)
		}
		got, err := MergeFleetSnapshots(snaps, opts)
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("%d-shard merged report differs from single validator:\nmerged: %s\nsingle: %s", shardCount, gotJSON, wantJSON)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%d-shard merged report struct differs from single validator", shardCount)
		}
	}

	// A snapshot carrying a poisoned output analysis must surface the same
	// error message a local report raises.
	if _, err := MergeFleetSnapshots([]FleetSessionSnapshot{{Device: "bad", OutputErr: "boom"}}, opts); err == nil {
		t.Error("merge accepted a snapshot with a poisoned output analysis")
	}
	if _, err := MergeFleetSnapshots(nil, opts); err == nil {
		t.Error("merge accepted an empty snapshot set")
	}
}

// TestOfflineAnalysesMatchReport pins that the exported one-analysis entry
// points (CompareLayers, OutputAgreement, Stragglers, StragglersVsReference)
// are feeds into the accumulators Validate runs: on the drifted fixture each
// equals the corresponding field of Validate's report.
func TestOfflineAnalysesMatchReport(t *testing.T) {
	edge, ref := driftedLogs(5)
	// Modeled latencies on both sides, with the edge's dw1 100x slower, so
	// both straggler analyses have something to say.
	for _, l := range []*Log{edge, ref} {
		for i := range l.Records {
			if r := &l.Records[i]; isLayerLatency(r) {
				r.Unit = "ns-modeled"
				if l == edge && r.LayerName == "dw1" {
					r.Value *= 100
				}
			}
		}
	}
	opts := DefaultValidateOptions()
	rep, err := Validate(edge, ref, opts)
	if err != nil {
		t.Fatal(err)
	}

	diffs, err := CompareLayers(edge, ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.LayerDiffs) == 0 || !reflect.DeepEqual(diffs, rep.LayerDiffs) {
		t.Errorf("CompareLayers = %+v, report has %+v", diffs, rep.LayerDiffs)
	}
	agreement, err := OutputAgreement(edge, ref)
	if err != nil {
		t.Fatal(err)
	}
	if agreement != rep.OutputAgreement {
		t.Errorf("OutputAgreement = %v, report has %v", agreement, rep.OutputAgreement)
	}
	own := Stragglers(edge, opts.StragglerFactor)
	vsRef := StragglersVsReference(edge, ref, opts.StragglerFactor)
	if len(own) == 0 || len(vsRef) == 0 {
		t.Fatalf("fixture fired no stragglers: own %v, vs reference %v", own, vsRef)
	}
	want := append([]string(nil), own...)
	for _, s := range vsRef {
		if !slices.Contains(want, s) {
			want = append(want, s)
		}
	}
	if !reflect.DeepEqual(rep.Stragglers, want) {
		t.Errorf("report stragglers = %v, want Stragglers ∪ StragglersVsReference = %v", rep.Stragglers, want)
	}

	// The error strings are part of the functions' contracts.
	if _, err := CompareLayers(&Log{}, ref); err == nil || err.Error() != "core: no frames to compare" {
		t.Errorf("CompareLayers(empty) = %v", err)
	}
	if _, err := OutputAgreement(&Log{}, ref); err == nil || err.Error() != "core: no frames to compare" {
		t.Errorf("OutputAgreement(empty) = %v", err)
	}
}

// TestStreamValidatorOwnsRetainedPayloads pins the hand-off rule ConsumeFrame
// documents: the caller may reuse the records' payload memory as soon as the
// call returns (the collector decodes chunks in place out of a pooled body),
// so the boundary tensors the validator retains as assertion evidence must
// be its own copies.
func TestStreamValidatorOwnsRetainedPayloads(t *testing.T) {
	edge, ref := driftedLogs(4)
	opts := DefaultValidateOptions()
	want, err := Validate(edge, ref, opts)
	if err != nil {
		t.Fatal(err)
	}
	sv := NewStreamValidator(ref, opts)
	for start := 0; start < len(edge.Records); {
		end := start
		for end < len(edge.Records) && edge.Records[end].Frame == edge.Records[start].Frame {
			end++
		}
		frame := slices.Clone(edge.Records[start:end])
		for i := range frame {
			frame[i].Payload = bytes.Clone(frame[i].Payload)
		}
		if err := sv.ConsumeFrame(frame[0].Frame, frame); err != nil {
			t.Fatal(err)
		}
		for i := range frame { // the buffer is reused for the next chunk
			for j := range frame[i].Payload {
				frame[i].Payload[j] = 0xAA
			}
		}
		start = end
	}
	got, err := sv.Report()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("report after the payload memory was reused differs from offline:\n%+v\nvs\n%+v", got, want)
	}
	retained := 0
	for _, kept := range sv.retain.Records {
		if kept.Kind != KindTensor {
			continue
		}
		retained++
		if orig := edge.Records[kept.Seq]; !bytes.Equal(kept.Payload, orig.Payload) {
			t.Fatalf("retained %q of frame %d changed when its source buffer was reused", kept.Key, kept.Frame)
		}
	}
	if retained == 0 {
		t.Fatal("no boundary tensor was retained; the test exercises nothing")
	}
}

// TestValidateIdenticalAcrossGOMAXPROCS pins what lets offline Validate
// measure records on every core: the report — and for a log with malformed
// layer records, which of them poisons the drift analysis and what the error
// says — is the same at 1, 2 and 8 cores, and is the streaming validator's,
// which measures and folds one record at a time. The fixture's per-frame
// nRMSE differs from frame to frame in the low bits, so a fold in any other
// order than the log's moves the means; one layer is a quantised capture on
// the edge and one an i32 capture on the reference, so the dequantising loop
// and the widening fallback (per-block scratch) run too.
func TestValidateIdenticalAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	build := func() (edge, ref *Log) {
		layers := []string{"conv1", "dw1", "conv2", "fc"}
		opTypes := []string{"Conv2D", "DepthwiseConv2D", "Conv2D", "FullyConnected"}
		ref = buildLayerLog(40, layers, opTypes, func(f, l, i int) float32 {
			return float32(1+l) * float32(math.Sin(float64(131*f+17*l+i)))
		})
		edge = buildLayerLog(40, layers, opTypes, func(f, l, i int) float32 {
			return float32(1+l)*float32(math.Sin(float64(131*f+17*l+i))) + 0.3*float32(math.Cos(float64(7*f+3*i+l)))
		})
		flipOutputs(edge)
		for i := range edge.Records {
			if r := &edge.Records[i]; r.Kind == KindTensor && r.LayerName == "conv2" {
				r.DType, r.QScale, r.QZero = "u8", 0.02, 128
				r.Payload = r.Payload[:8]
			}
		}
		for i := range ref.Records {
			if r := &ref.Records[i]; r.Kind == KindTensor && r.LayerName == "fc" {
				r.DType = "i32"
			}
		}
		return edge, ref
	}
	layerRecord := func(l *Log, frame int, name string) *Record {
		for i := range l.Records {
			if r := &l.Records[i]; r.Kind == KindTensor && r.Frame == frame && r.LayerName == name {
				return r
			}
		}
		t.Fatalf("no %s record in frame %d", name, frame)
		return nil
	}
	cases := []struct {
		name    string
		corrupt func(edge, ref *Log)
		wantErr string // CompareLayers' error; empty for a clean log
	}{
		{"clean, one reference key twice", func(edge, ref *Log) {
			again := *layerRecord(ref, 3, "conv1") // the index keeps the later one
			again.Payload = bytes.Clone(layerRecord(ref, 4, "conv1").Payload)
			ref.Records = append(ref.Records, again)
		}, ""},
		{"malformed edge records", func(edge, ref *Log) {
			r := layerRecord(edge, 21, "dw1")
			r.Payload = r.Payload[:len(r.Payload)-1]
			layerRecord(edge, 30, "conv1").DType = "f64"
		}, `core: record "layer/dw1/output" has 31 payload bytes for f32[8]`},
		{"malformed reference record", func(edge, ref *Log) {
			layerRecord(ref, 25, "conv1").Shape = []int{2, -4}
			layerRecord(edge, 33, "fc").Kind = KindStats
		}, `core: record "layer/conv1/output" has negative dim in shape [2 -4]`},
	}
	opts := DefaultValidateOptions()
	for _, c := range cases {
		edge, ref := build()
		c.corrupt(edge, ref)

		runtime.GOMAXPROCS(1)
		sv := NewStreamValidator(ref, opts)
		for i := range edge.Records {
			_ = sv.Consume(edge.Records[i]) // a malformed record's error; the report carries the poison
		}
		streamed, err := sv.Report()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want, _ := json.Marshal(streamed)
		if clean := c.wantErr == ""; clean != (len(streamed.LayerDiffs) == 4) {
			t.Fatalf("%s: streamed report has %d layer diffs", c.name, len(streamed.LayerDiffs))
		}

		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			rep, err := Validate(edge, ref, opts)
			if err != nil {
				t.Fatalf("%s at GOMAXPROCS %d: %v", c.name, procs, err)
			}
			if got, _ := json.Marshal(rep); !bytes.Equal(got, want) {
				t.Errorf("%s at GOMAXPROCS %d: offline report differs from the streamed one:\noffline %s\nstream  %s", c.name, procs, got, want)
			}
			diffs, err := CompareLayers(edge, ref)
			if c.wantErr == "" {
				if err != nil || !reflect.DeepEqual(diffs, rep.LayerDiffs) {
					t.Errorf("%s at GOMAXPROCS %d: CompareLayers = %v, %v; the report has %v", c.name, procs, diffs, err, rep.LayerDiffs)
				}
			} else if err == nil || err.Error() != c.wantErr {
				t.Errorf("%s at GOMAXPROCS %d: CompareLayers error %v, want the first malformed record's: %s", c.name, procs, err, c.wantErr)
			}
		}
	}
}

// TestValidateOfflineRetainsNothing: the offline validator hands the whole
// edge log to the report, so it must not clone the boundary records a live
// stream retains as assertion evidence (ROADMAP 4c). A log whose boundary
// tensors outweigh everything else by far validates in a fraction of their
// bytes; the same records through a streaming validator cost all of them.
func TestValidateOfflineRetainsNothing(t *testing.T) {
	edge, ref := driftedLogs(DefaultRetainBoundaryFrames)
	boundary := 0
	for f := 0; f < DefaultRetainBoundaryFrames; f++ {
		var r Record
		r.Frame, r.Key = f, KeyModelInput
		r.EncodeTensor(tensor.New(tensor.F32, 1<<16), true)
		boundary += len(r.Payload)
		edge.Records = append(edge.Records, r)
	}
	opts := DefaultValidateOptions()
	opts.Assertions = []Assertion{}
	offline := allocatedBytes(func() {
		if _, err := Validate(edge, ref, opts); err != nil {
			t.Fatal(err)
		}
	})
	streamed := allocatedBytes(func() {
		sv := NewStreamValidator(ref, opts)
		if err := sv.ConsumeFrame(0, edge.Records); err != nil {
			t.Fatal(err)
		}
	})
	if offline > boundary/8 {
		t.Errorf("offline Validate allocated %d bytes over a log with %d bytes of boundary tensors: it is retaining them", offline, boundary)
	}
	if streamed < boundary {
		t.Fatalf("the streaming validator allocated %d bytes, less than the %d it must retain: the fixture measures nothing", streamed, boundary)
	}
}
