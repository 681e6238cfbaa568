package core

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"mlexray/internal/tensor"
)

func TestRecordTensorRoundTrip(t *testing.T) {
	for _, dt := range []tensor.DType{tensor.F32, tensor.U8, tensor.I8, tensor.I32} {
		src := tensor.New(dt, 2, 3)
		for i := 0; i < src.Len(); i++ {
			src.SetAt(float64(i%120-5), i/3, i%3)
		}
		var r Record
		r.Key = "t"
		r.EncodeTensor(src, true)
		back, err := r.DecodeTensor()
		if err != nil {
			t.Fatalf("%v: %v", dt, err)
		}
		if back.DType != dt || !tensor.SameShape(back.Shape, src.Shape) {
			t.Fatalf("%v: got %v", dt, back)
		}
		for i := 0; i < src.Len(); i++ {
			if src.At(i/3, i%3) != back.At(i/3, i%3) {
				t.Fatalf("%v: value changed at %d", dt, i)
			}
		}
	}
}

func TestRecordStatsOnlyRejectsDecode(t *testing.T) {
	var r Record
	r.EncodeTensor(tensor.New(tensor.F32, 4), false)
	if r.Kind != KindStats {
		t.Errorf("kind = %v", r.Kind)
	}
	if r.Stats == nil {
		t.Error("stats missing")
	}
	if _, err := r.DecodeTensor(); err == nil {
		t.Error("stats-only record decoded as tensor")
	}
}

// Property: JSONL round trip preserves every record.
func TestLogJSONLRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var l Log
		for i := 0; i < 10; i++ {
			var r Record
			r.Seq = i
			r.Frame = i / 3
			r.Key = "k" + string(rune('a'+i))
			if rng.Intn(2) == 0 {
				tt := tensor.New(tensor.F32, 3)
				tensor.RandUniform(rng, tt, -1, 1)
				r.EncodeTensor(tt, true)
			} else {
				r.Kind = KindMetric
				r.Value = rng.Float64()
			}
			l.Records = append(l.Records, r)
		}
		var buf bytes.Buffer
		if err := l.WriteJSONL(&buf); err != nil {
			return false
		}
		back, err := ReadLog(&buf)
		if err != nil || len(back.Records) != len(l.Records) {
			return false
		}
		for i := range l.Records {
			if back.Records[i].Key != l.Records[i].Key || back.Records[i].Kind != l.Records[i].Kind {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestReadLogRejectsGarbage(t *testing.T) {
	if _, err := ReadLog(strings.NewReader("not json\n")); err == nil {
		t.Error("accepted garbage line")
	}
}

func TestMonitorBasicFlow(t *testing.T) {
	m := NewMonitor()
	m.LogSensor(KeySensorOrientation, 90, "deg")
	m.NextFrame()
	tt := tensor.FromFloats([]float32{1, 2, 3}, 3)
	m.LogTensorFull(KeyPreprocessOutput, tt)
	m.OnInferenceStart()
	m.OnInferenceStop(nil)
	l := m.Log()
	if len(l.Records) != 3 {
		t.Fatalf("record count = %d", len(l.Records))
	}
	if l.Records[0].Frame != 0 || l.Records[1].Frame != 1 {
		t.Error("frame attribution wrong")
	}
	if got := l.MetricValues(KeyInferenceLatency); len(got) != 1 || got[0] < 0 {
		t.Errorf("latency metrics = %v", got)
	}
	if m.MemoryFootprintBytes() <= 0 {
		t.Error("memory footprint")
	}
	m.Reset()
	if len(m.Log().Records) != 0 {
		t.Error("reset did not clear")
	}
}

func TestMonitorCaptureModes(t *testing.T) {
	tt := tensor.New(tensor.F32, 100)
	stats := NewMonitor(WithCaptureMode(CaptureStats))
	stats.LogTensor("x", tt)
	full := NewMonitor(WithCaptureMode(CaptureFull))
	full.LogTensor("x", tt)
	sb, _ := stats.Log().SizeBytes()
	fb, _ := full.Log().SizeBytes()
	if fb <= sb*2 {
		t.Errorf("full capture (%dB) should dwarf stats capture (%dB)", fb, sb)
	}
}

// buildLayerLog fabricates a per-layer log for validator tests.
func buildLayerLog(frames int, layers []string, opTypes []string, valueAt func(frame, layer, idx int) float32) *Log {
	l := &Log{}
	seq := 0
	for f := 0; f < frames; f++ {
		for li, name := range layers {
			tt := tensor.New(tensor.F32, 8)
			for i := range tt.F {
				tt.F[i] = valueAt(f, li, i)
			}
			var r Record
			r.Seq = seq
			seq++
			r.Frame = f
			r.Key = LayerOutputKey(name)
			r.LayerIndex = li
			r.LayerName = name
			r.OpType = opTypes[li]
			r.EncodeTensor(tt, true)
			l.Records = append(l.Records, r)

			l.Records = append(l.Records, Record{
				Seq: seq, Frame: f, Key: LayerLatencyKey(name), Kind: KindMetric,
				LayerIndex: li, LayerName: name, OpType: opTypes[li],
				Value: float64(1000 * (li + 1)), Unit: "ns",
			})
			seq++
		}
		// Model output per frame.
		out := tensor.New(tensor.F32, 4)
		out.F[f%4] = 1
		var r Record
		r.Seq = seq
		seq++
		r.Frame = f
		r.Key = KeyModelOutput
		r.EncodeTensor(out, true)
		l.Records = append(l.Records, r)
	}
	return l
}

func TestCompareLayersFindsSpike(t *testing.T) {
	layers := []string{"conv1", "dw1", "conv2"}
	opTypes := []string{"Conv2D", "DepthwiseConv2D", "Conv2D"}
	ref := buildLayerLog(3, layers, opTypes, func(f, l, i int) float32 {
		return float32(f + l + i)
	})
	// Edge matches on conv1 but diverges hugely from dw1 onward.
	edge := buildLayerLog(3, layers, opTypes, func(f, l, i int) float32 {
		v := float32(f + l + i)
		if l >= 1 {
			v += 50
		}
		return v
	})
	diffs, err := CompareLayers(edge, ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 3 {
		t.Fatalf("%d diffs", len(diffs))
	}
	if diffs[0].NRMSE > 0.01 {
		t.Errorf("conv1 drift = %v, want ~0", diffs[0].NRMSE)
	}
	if diffs[1].NRMSE < 1 {
		t.Errorf("dw1 drift = %v, want large", diffs[1].NRMSE)
	}
	spike, ok := FirstSpike(diffs, 0.1, 3)
	if !ok || spike.Name != "dw1" {
		t.Errorf("spike = %+v, ok=%v", spike, ok)
	}
	suspects := SuspectLayers(diffs, 0.1)
	if len(suspects) != 2 {
		t.Errorf("suspects = %d", len(suspects))
	}
}

func TestOutputAgreement(t *testing.T) {
	layers := []string{"conv1"}
	ops := []string{"Conv2D"}
	a := buildLayerLog(4, layers, ops, func(f, l, i int) float32 { return float32(i) })
	b := buildLayerLog(4, layers, ops, func(f, l, i int) float32 { return float32(i) })
	ag, err := OutputAgreement(a, b)
	if err != nil || ag != 1 {
		t.Errorf("agreement = %v, %v", ag, err)
	}
	// Perturb two frames' outputs in b.
	changed := 0
	for i := range b.Records {
		if b.Records[i].Key == KeyModelOutput && changed < 2 {
			out := tensor.New(tensor.F32, 4)
			out.F[(b.Records[i].Frame+1)%4] = 2
			b.Records[i].EncodeTensor(out, true)
			changed++
		}
	}
	ag, err = OutputAgreement(a, b)
	if err != nil || ag != 0.5 {
		t.Errorf("agreement after perturbation = %v, %v", ag, err)
	}
}

func TestLatencyByClassAndStragglers(t *testing.T) {
	layers := []string{"conv1", "dw1", "slow"}
	opTypes := []string{"Conv2D", "DepthwiseConv2D", "Conv2D"}
	l := &Log{}
	for f := 0; f < 2; f++ {
		for li, name := range layers {
			v := float64(1000)
			if name == "slow" {
				v = 100000
			}
			l.Records = append(l.Records, Record{
				Frame: f, Key: LayerLatencyKey(name), Kind: KindMetric,
				LayerIndex: li, LayerName: name, OpType: opTypes[li], Value: v, Unit: "ns",
			})
		}
	}
	classOf := func(op string) string {
		if op == "DepthwiseConv2D" {
			return "D-Conv"
		}
		return "Conv"
	}
	agg := LatencyByClass(l, classOf)
	if len(agg) != 2 {
		t.Fatalf("classes = %d", len(agg))
	}
	if agg[0].Class != "Conv" || agg[0].Count != 2 {
		t.Errorf("top class = %+v", agg[0])
	}
	st := Stragglers(l, 8)
	if len(st) != 1 || st[0] != "slow" {
		t.Errorf("stragglers = %v", st)
	}
}

func TestValidateEndToEndFlow(t *testing.T) {
	layers := []string{"conv1", "dw1"}
	opTypes := []string{"Conv2D", "DepthwiseConv2D"}
	ref := buildLayerLog(4, layers, opTypes, func(f, l, i int) float32 { return float32(f + i) })
	edge := buildLayerLog(4, layers, opTypes, func(f, l, i int) float32 {
		v := float32(f + i)
		if l == 1 {
			v = -v * 10
		}
		return v
	})
	// Force output disagreement so the layer analysis triggers.
	for i := range edge.Records {
		if edge.Records[i].Key == KeyModelOutput {
			out := tensor.New(tensor.F32, 4)
			out.F[(edge.Records[i].Frame+2)%4] = 1
			edge.Records[i].EncodeTensor(out, true)
		}
	}
	rep, err := Validate(edge, ref, DefaultValidateOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.OutputAgreement != 0 {
		t.Errorf("agreement = %v", rep.OutputAgreement)
	}
	if rep.Spike == nil || rep.Spike.Name != "dw1" {
		t.Fatalf("spike = %+v", rep.Spike)
	}
	// The quantization-drift assertion should name the depthwise layer.
	found := false
	for _, f := range rep.Findings {
		if f.Assertion == "quantization-drift" && strings.Contains(f.Detail, "DepthwiseConv2D") {
			found = true
		}
	}
	if !found {
		t.Errorf("quantization-drift finding missing: %+v", rep.Findings)
	}
	var buf bytes.Buffer
	rep.Render(&buf)
	if !strings.Contains(buf.String(), "dw1") {
		t.Error("report render missing spike layer")
	}
}

func TestLogQueries(t *testing.T) {
	m := NewMonitor()
	m.LogMetric("a", 1, "x")
	m.NextFrame()
	m.LogMetric("a", 2, "x")
	m.LogMetric("b", 3, "x")
	l := m.Log()
	if v := l.MetricValues("a"); len(v) != 2 || v[1] != 2 {
		t.Errorf("MetricValues = %v", v)
	}
	if got := len(l.ByKey("b")); got != 1 {
		t.Errorf("ByKey = %d", got)
	}
	if got := len(l.ByFrame(1)); got != 2 {
		t.Errorf("ByFrame = %d", got)
	}
	if l.Frames() != 2 {
		t.Errorf("Frames = %d", l.Frames())
	}
	if _, err := l.FirstTensor(0, "missing"); err == nil {
		t.Error("FirstTensor accepted missing key")
	}
}
