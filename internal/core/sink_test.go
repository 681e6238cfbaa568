package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"mlexray/internal/tensor"
)

func TestSetNextFrameAndDrain(t *testing.T) {
	m := NewMonitor()
	m.SetNextFrame(7)
	if got := m.NextFrame(); got != 7 {
		t.Fatalf("NextFrame after SetNextFrame(7) = %d", got)
	}
	m.LogMetric("a", 1, "u")
	m.LogMetric("b", 2, "u")
	recs := m.Drain()
	if len(recs) != 2 {
		t.Fatalf("drained %d records", len(recs))
	}
	if recs[0].Frame != 7 || recs[1].Frame != 7 {
		t.Errorf("drained frames = %d, %d, want 7", recs[0].Frame, recs[1].Frame)
	}
	if len(m.Log().Records) != 0 {
		t.Error("Drain left records behind")
	}
	// The sequence counter survives a drain, so later records keep
	// monotonically increasing shard-local seq.
	m.LogMetric("c", 3, "u")
	if got := m.Log().Records[0].Seq; got != 2 {
		t.Errorf("post-drain seq = %d, want 2", got)
	}
}

func TestMergeByFrame(t *testing.T) {
	// Two shards that processed interleaved frames, each in increasing
	// order — the parallel replay shape.
	shardA := &Log{Records: []Record{
		{Seq: 0, Frame: 1, Key: "x"},
		{Seq: 1, Frame: 1, Key: "y"},
		{Seq: 2, Frame: 3, Key: "x"},
	}}
	shardB := &Log{Records: []Record{
		{Seq: 0, Frame: 2, Key: "x"},
		{Seq: 1, Frame: 4, Key: "x"},
	}}
	merged := MergeByFrame(shardA, shardB)
	wantFrames := []int{1, 1, 2, 3, 4}
	if len(merged.Records) != len(wantFrames) {
		t.Fatalf("merged %d records", len(merged.Records))
	}
	for i, r := range merged.Records {
		if r.Frame != wantFrames[i] {
			t.Errorf("record %d frame = %d, want %d", i, r.Frame, wantFrames[i])
		}
		if r.Seq != i {
			t.Errorf("record %d seq = %d, want %d", i, r.Seq, i)
		}
	}
	// Intra-frame order preserved (stable merge).
	if merged.Records[0].Key != "x" || merged.Records[1].Key != "y" {
		t.Error("intra-frame order not preserved")
	}
}

func TestJSONLSinkMatchesWriteJSONL(t *testing.T) {
	m := NewMonitor(WithCaptureMode(CaptureFull))
	tt := tensor.FromFloats([]float32{1, 2, 3, 4}, 2, 2)
	for f := 0; f < 3; f++ {
		m.NextFrame()
		m.LogTensor("t", tt)
		m.LogMetric("m", float64(f), "u")
	}
	l := m.Log()
	var want bytes.Buffer
	if err := l.WriteJSONL(&want); err != nil {
		t.Fatal(err)
	}

	var got bytes.Buffer
	sink := NewJSONLSink(&got)
	for f := 1; f <= 3; f++ {
		if err := sink.WriteFrame(f, l.ByFrame(f)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("sink output differs from WriteJSONL")
	}
	if sink.Records() != len(l.Records) {
		t.Errorf("sink.Records() = %d, want %d", sink.Records(), len(l.Records))
	}
	if sink.Bytes() != want.Len() {
		t.Errorf("sink.Bytes() = %d, want %d", sink.Bytes(), want.Len())
	}
	// And the stream reads back as a log.
	back, err := ReadLog(&got)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Records) != len(l.Records) {
		t.Errorf("read back %d records, want %d", len(back.Records), len(l.Records))
	}
}

// TestPreEncodeMatchesWriteFrame pins the FramePreEncoder contract: for any
// frame and sequence base, WritePreEncoded over worker-marshaled lines
// produces exactly the bytes WriteFrame produces after assigning the same
// sequence numbers — including multi-digit seq patches and base64 payloads.
func TestPreEncodeMatchesWriteFrame(t *testing.T) {
	m := NewMonitor(WithCaptureMode(CaptureFull), WithPerLayer(true))
	tt := tensor.FromFloats([]float32{1.5, -2.25, 3, 4}, 2, 2)
	qt := tensor.New(tensor.U8, 4)
	copy(qt.U, []byte{0, 7, 130, 255})
	for f := 0; f < 3; f++ {
		m.NextFrame()
		m.LogTensorFull(KeyPreprocessOutput, tt)
		m.LogTensor("layer/q/output", qt)
		m.LogMetric(KeyInferenceLatency, float64(100+f), "ns")
		m.LogSensor(KeySensorOrientation, 90, "deg")
	}
	l := m.Log()

	// Start the sequence high so the patch replaces a multi-digit number.
	const seqBase = 4095
	var want bytes.Buffer
	wantSink := NewJSONLSink(&want)
	seq := seqBase
	for f := 1; f <= 3; f++ {
		recs := l.ByFrame(f)
		for i := range recs {
			recs[i].Seq = seq + i
		}
		if err := wantSink.WriteFrame(f, recs); err != nil {
			t.Fatal(err)
		}
		seq += len(recs)
	}
	if err := wantSink.Flush(); err != nil {
		t.Fatal(err)
	}

	var got bytes.Buffer
	sink := NewJSONLSink(&got)
	seq = seqBase
	for f := 1; f <= 3; f++ {
		recs := l.ByFrame(f)
		// Scramble Seq to prove pre-encoding ignores it.
		for i := range recs {
			recs[i].Seq = -99
		}
		pf, err := sink.PreEncodeFrame(recs)
		if err != nil {
			t.Fatal(err)
		}
		if pf.Records() != len(recs) {
			t.Fatalf("pre-encoded %d records, want %d", pf.Records(), len(recs))
		}
		if err := sink.WritePreEncoded(f, pf, seq); err != nil {
			t.Fatal(err)
		}
		seq += len(recs)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("pre-encoded stream differs from WriteFrame stream")
	}
	if sink.Records() != len(l.Records) {
		t.Errorf("sink.Records() = %d, want %d", sink.Records(), len(l.Records))
	}
	back, err := ReadLog(&got)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Records) != len(l.Records) {
		t.Fatalf("read back %d records, want %d", len(back.Records), len(l.Records))
	}
	if s := back.Records[0].Seq; s != seqBase {
		t.Errorf("first read-back seq = %d, want %d", s, seqBase)
	}
}

// TestBinarySinkMatchesWriteBinary is the binary twin of the JSONL sink
// parity test: streaming frame by frame produces the same bytes as writing
// the accumulated log at the end.
func TestBinarySinkMatchesWriteBinary(t *testing.T) {
	m := NewMonitor(WithCaptureMode(CaptureFull))
	tt := tensor.FromFloats([]float32{1, 2, 3, 4}, 2, 2)
	for f := 0; f < 3; f++ {
		m.NextFrame()
		m.LogTensor("t", tt)
		m.LogMetric("m", float64(f), "u")
	}
	l := m.Log()
	var want bytes.Buffer
	if err := l.WriteBinary(&want); err != nil {
		t.Fatal(err)
	}

	var got bytes.Buffer
	sink, err := NewLogSink(&got, FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	if sink.Format() != FormatBinary {
		t.Errorf("Format() = %v", sink.Format())
	}
	for f := 1; f <= 3; f++ {
		if err := sink.WriteFrame(f, l.ByFrame(f)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("sink output differs from WriteBinary")
	}
	if sink.Records() != len(l.Records) || sink.Bytes() != want.Len() {
		t.Errorf("sink stats = %d records / %d bytes, want %d / %d",
			sink.Records(), sink.Bytes(), len(l.Records), want.Len())
	}
	back, err := ReadLog(&got)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Records) != len(l.Records) {
		t.Errorf("read back %d records, want %d", len(back.Records), len(l.Records))
	}
}

// TestMonitorSpillMode checks WithSink: the spill-mode stream is
// byte-identical to an accumulate-then-write run of the same capture, the
// monitor's buffer stays one frame deep, and Flush delivers the final frame.
// The recycle scribble is on: every frame is captured into the buffers the
// previous one was spilled from, so a sink holding on to anything would
// write 0xA5 bytes.
func TestMonitorSpillMode(t *testing.T) {
	defer ScribbleRecycledCaptures(ScribbleRecycledCaptures(true))
	capture := func(m *Monitor) {
		tt := tensor.New(tensor.F32, 64)
		for i := range tt.F {
			tt.F[i] = float32(i) * 0.5
		}
		for f := 0; f < 4; f++ {
			m.NextFrame()
			m.LogTensorFull(KeyPreprocessOutput, tt)
			m.LogMetric(KeyInferenceModeled, float64(1000*f), "ns-modeled")
		}
	}

	ref := NewMonitor(WithCaptureMode(CaptureFull))
	capture(ref)
	var want bytes.Buffer
	if err := ref.Log().WriteJSONL(&want); err != nil {
		t.Fatal(err)
	}

	for _, format := range []LogFormat{FormatJSONL, FormatBinary} {
		var got bytes.Buffer
		sink, err := NewLogSink(&got, format)
		if err != nil {
			t.Fatal(err)
		}
		m := NewMonitor(WithCaptureMode(CaptureFull), WithSink(sink))
		capture(m)
		// Before Flush the final frame is the only thing buffered.
		if n := len(m.Log().Records); n != 2 {
			t.Errorf("%v: %d records buffered mid-capture, want one frame (2)", format, n)
		}
		if err := m.Flush(); err != nil {
			t.Fatal(err)
		}
		if n := len(m.Log().Records); n != 0 {
			t.Errorf("%v: %d records left after Flush", format, n)
		}
		back, err := ReadLog(bytes.NewReader(got.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var backJSONL bytes.Buffer
		if err := back.WriteJSONL(&backJSONL); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(backJSONL.Bytes(), want.Bytes()) {
			t.Errorf("%v: spill-mode log differs from accumulated log", format)
		}
		var direct bytes.Buffer
		if err := ref.Log().Write(&direct, format); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), direct.Bytes()) {
			t.Errorf("%v: spill-mode stream is not Log.Write of the accumulated log, byte for byte", format)
		}
	}
}

// failSink fails every write; spill mode must retain the first error and
// surface it from Flush.
type failSink struct{ calls int }

func (s *failSink) WriteFrame(frame int, recs []Record) error {
	s.calls++
	return fmt.Errorf("disk full")
}

func (s *failSink) Flush() error { return nil }

// TestMonitorResetDetachesSink pins the Reset contract in spill mode: the
// sink is detached (restarted frame numbering would violate its increasing-
// frame-order contract) and unspilled records are discarded, not written.
func TestMonitorResetDetachesSink(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	m := NewMonitor(WithSink(sink))
	m.NextFrame()
	m.LogMetric("a", 1, "u")
	m.Reset()
	m.NextFrame()
	m.LogMetric("b", 2, "u")
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	if sink.Records() != 0 {
		t.Errorf("detached sink received %d records after Reset", sink.Records())
	}
	// Post-Reset telemetry accumulates in memory as on a fresh monitor.
	if got := len(m.Log().Records); got != 1 {
		t.Errorf("post-Reset log has %d records, want 1", got)
	}
}

func TestMonitorSpillModeSinkError(t *testing.T) {
	sink := &failSink{}
	m := NewMonitor(WithSink(sink))
	m.NextFrame()
	m.LogMetric("a", 1, "u")
	m.NextFrame() // first spill fails
	m.LogMetric("b", 2, "u")
	if err := m.Flush(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("Flush = %v, want the sink error", err)
	}
	if sink.calls != 1 {
		t.Errorf("sink called %d times after failing, want 1 (no out-of-order writes)", sink.calls)
	}
}
