package core

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"mlexray/internal/tensor"
)

// goldenTelemetryLog builds the deterministic log pinned by
// testdata/golden.jsonl: every record kind, every dtype, quantized params,
// layer provenance, stats-only captures and an empty tensor payload. The
// fixture was generated before the codec redesign, so matching it proves the
// on-disk JSONL format never changed.
func goldenTelemetryLog() *Log {
	l := &Log{}
	add := func(r Record) {
		r.Seq = len(l.Records)
		l.Records = append(l.Records, r)
	}

	// Frame 0: sensor and metric records.
	add(Record{Frame: 0, Key: KeySensorOrientation, Kind: KindSensor, Value: 90, Unit: "deg"})
	add(Record{Frame: 0, Key: KeyInferenceLatency, Kind: KindMetric, Value: 123456, Unit: "ns"})

	// Frame 1: one full tensor per dtype, with layer provenance.
	for i, dt := range []tensor.DType{tensor.F32, tensor.U8, tensor.I8, tensor.I32} {
		tt := tensor.New(dt, 2, 3)
		for j := 0; j < tt.Len(); j++ {
			var v float64
			switch dt {
			case tensor.F32:
				v = float64(j)*1.5 - 2
			case tensor.U8:
				v = float64((j*37 + 11) % 200)
			case tensor.I8:
				v = float64((j*29)%200 - 100)
			case tensor.I32:
				v = float64(j*1000 - 2500)
			}
			tt.SetAt(v, j/3, j%3)
		}
		name := fmt.Sprintf("node%d", i)
		r := Record{Frame: 1, Key: LayerOutputKey(name), LayerIndex: i, LayerName: name, OpType: "Conv2D"}
		r.EncodeTensor(tt, true)
		add(r)
	}

	// Frame 1: a stats-only capture.
	st := tensor.New(tensor.F32, 8)
	for i := range st.F {
		st.F[i] = float32(i) * 0.25
	}
	sr := Record{Frame: 1, Key: KeyModelInput}
	sr.EncodeTensor(st, false)
	add(sr)

	// Frame 2: quantized captures (u8 and i8) carrying scale/zero-point.
	qu := tensor.New(tensor.U8, 5)
	for i := range qu.U {
		qu.U[i] = uint8(3 + i*7)
	}
	qur := Record{Frame: 2, Key: LayerOutputKey("quant_u8"), LayerIndex: 9, LayerName: "quant_u8", OpType: "Conv2D"}
	qur.EncodeTensor(qu, true)
	qur.QScale = 0.05
	qur.QZero = 3
	add(qur)

	qi := tensor.New(tensor.I8, 5)
	for i := range qi.I {
		qi.I[i] = int8(i*13 - 20)
	}
	qir := Record{Frame: 2, Key: LayerOutputKey("quant_i8"), LayerIndex: 10, LayerName: "quant_i8", OpType: "FullyConnected"}
	qir.EncodeTensor(qi, true)
	qir.QScale = 0.02
	qir.QZero = -4
	add(qir)

	// Frame 2: an empty tensor payload.
	er := Record{Frame: 2, Key: "debug/empty"}
	er.EncodeTensor(tensor.New(tensor.F32, 0), true)
	add(er)

	// Frame 3: a model output.
	out := tensor.New(tensor.F32, 4)
	out.F[2] = 1
	or := Record{Frame: 3, Key: KeyModelOutput}
	or.EncodeTensor(out, true)
	add(or)

	return l
}

// pinGolden holds got to the committed fixture at path and returns the
// fixture's bytes. Regenerate a fixture (only for a deliberate, documented
// format change) with REGEN_GOLDEN=1 go test ./internal/core -run <that test>.
func pinGolden(t *testing.T, path string, got []byte) []byte {
	t.Helper()
	if os.Getenv("REGEN_GOLDEN") != "" {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d bytes)", path, len(got))
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encoder output diverged from the golden fixture %s (%d vs %d bytes)", path, len(got), len(want))
	}
	return want
}

// TestGoldenJSONLPinned asserts the serialized JSONL of the golden log is
// byte-identical to the fixture generated before the codec redesign — the
// proof that lazy payloads did not change the on-disk JSONL format.
func TestGoldenJSONLPinned(t *testing.T) {
	want := pinGolden(t, "testdata/golden.jsonl", jsonlBytes(t, goldenTelemetryLog()))
	// And the fixture reads back whole.
	back, err := ReadLog(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Records) != len(goldenTelemetryLog().Records) {
		t.Fatalf("fixture reads back %d records", len(back.Records))
	}
}

// TestGoldenMLXBPinned is the binary twin: the MLXB bytes of the golden log
// are the wire format of every upload and every WAL entry body, so a change
// to them is a deliberate act. The fixture must also read back through both
// decoders — streaming and in-place — to the same records, and those records
// re-encode to golden.jsonl, tying the two fixtures to one log.
func TestGoldenMLXBPinned(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenTelemetryLog().WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	want := pinGolden(t, "testdata/golden.mlxb", buf.Bytes())

	sdec, sformat, serr := OpenLog(bytes.NewReader(want))
	streamed, errText := decodeAll(sdec, serr)
	if errText != "" || sformat != FormatBinary {
		t.Fatalf("OpenLog: format %v, error %q", sformat, errText)
	}
	mdec, mformat, merr := OpenLogBytes(want)
	inPlace, errText := decodeAll(mdec, merr)
	if errText != "" || mformat != FormatBinary {
		t.Fatalf("OpenLogBytes: format %v, error %q", mformat, errText)
	}
	if !reflect.DeepEqual(inPlace, streamed) {
		t.Fatal("in-place and streaming decoders disagree on the fixture")
	}
	jsonl, err := os.ReadFile("testdata/golden.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if got := jsonlBytes(t, &Log{Records: streamed}); !bytes.Equal(got, jsonl) {
		t.Fatalf("golden.mlxb does not decode to golden.jsonl's log (%d vs %d bytes)", len(got), len(jsonl))
	}
}

// TestGoldenTensorStatsStillDecode pins the decoders' side of the change
// that took stats off full-capture records: testdata/golden_tensor_stats.*
// are the golden fixtures as the encoders wrote them before it, every tensor
// record carrying a summary of its payload. Logs, uploads and WAL segments
// written then must still read back, through either reader, to today's
// golden records field for field, apart from that summary.
func TestGoldenTensorStatsStillDecode(t *testing.T) {
	readers := map[string]func([]byte) (*Log, error){
		"ReadLog": func(b []byte) (*Log, error) { return ReadLog(bytes.NewReader(b)) },
		"OpenLogBytes": func(b []byte) (*Log, error) {
			dec, _, err := OpenLogBytes(b)
			if err != nil {
				return nil, err
			}
			return readAll(dec)
		},
	}
	for _, ext := range []string{"jsonl", "mlxb"} {
		old, err := os.ReadFile("testdata/golden_tensor_stats." + ext)
		if err != nil {
			t.Fatal(err)
		}
		cur, err := os.ReadFile("testdata/golden." + ext)
		if err != nil {
			t.Fatal(err)
		}
		for name, read := range readers {
			gotLog, err := read(old)
			if err != nil {
				t.Fatalf("%s of golden_tensor_stats.%s: %v", name, ext, err)
			}
			wantLog, err := read(cur)
			if err != nil {
				t.Fatalf("%s of golden.%s: %v", name, ext, err)
			}
			got, want := gotLog.Records, wantLog.Records
			if len(got) != len(want) {
				t.Fatalf("%s of golden_tensor_stats.%s: %d records, want %d", name, ext, len(got), len(want))
			}
			withStats := 0
			for i := range got {
				if got[i].Kind == KindTensor && got[i].Stats != nil {
					withStats++
					got[i].Stats = nil
				}
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("%s of golden_tensor_stats.%s: record %d is\n%+v\nwant\n%+v", name, ext, i, got[i], want[i])
				}
			}
			if withStats != 8 {
				t.Errorf("%s of golden_tensor_stats.%s: %d tensor records carry stats, want 8", name, ext, withStats)
			}
		}
	}
}

// roundTrip serializes l in the given format and reads it back through the
// auto-detecting reader.
func roundTrip(t *testing.T, l *Log, format LogFormat) *Log {
	t.Helper()
	var buf bytes.Buffer
	if err := l.Write(&buf, format); err != nil {
		t.Fatal(err)
	}
	dec, got, err := OpenLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != format {
		t.Fatalf("auto-detected %v, wrote %v", got, format)
	}
	back, err := readAll(dec)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

func jsonlBytes(t *testing.T, l *Log) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenCrossCodecRoundTrip pushes the golden log through
// JSONL→binary→JSONL: the final JSONL must be byte-identical to the first —
// the binary codec loses nothing the JSONL format can express.
func TestGoldenCrossCodecRoundTrip(t *testing.T) {
	l := goldenTelemetryLog()
	want := jsonlBytes(t, l)
	viaJSONL := roundTrip(t, l, FormatJSONL)
	viaBinary := roundTrip(t, viaJSONL, FormatBinary)
	if got := jsonlBytes(t, viaBinary); !bytes.Equal(got, want) {
		t.Fatalf("JSONL→binary→JSONL changed the log (%d vs %d bytes)", len(got), len(want))
	}
}

// randomLog fabricates a log drawing every record kind, every dtype,
// quantization params and degenerate shapes from the seed.
func randomLog(seed int64) *Log {
	rng := rand.New(rand.NewSource(seed))
	l := &Log{}
	n := rng.Intn(14) // occasionally zero records
	for i := 0; i < n; i++ {
		r := Record{Seq: i, Frame: rng.Intn(4)}
		switch rng.Intn(4) {
		case 0, 1: // tensor / stats capture
			dt := []tensor.DType{tensor.F32, tensor.U8, tensor.I8, tensor.I32}[rng.Intn(4)]
			var tt *tensor.Tensor
			if rng.Intn(8) == 0 {
				tt = tensor.New(dt, 0) // empty payload
			} else {
				tt = tensor.New(dt, 1+rng.Intn(3), 1+rng.Intn(5))
				for j := 0; j < tt.Len(); j++ {
					tt.SetAt(float64(rng.Intn(200)-100), j/tt.Shape[1], j%tt.Shape[1])
				}
			}
			r.Key = LayerOutputKey(fmt.Sprintf("n%d", i))
			r.LayerIndex = i
			r.LayerName = fmt.Sprintf("n%d", i)
			r.OpType = []string{"Conv2D", "DepthwiseConv2D", "Softmax"}[rng.Intn(3)]
			r.EncodeTensor(tt, rng.Intn(2) == 0)
			if (dt == tensor.U8 || dt == tensor.I8) && rng.Intn(2) == 0 {
				r.QScale = float64(1+rng.Intn(9)) / 100
				r.QZero = int32(rng.Intn(11) - 5)
			}
		case 2:
			r.Key = KeyInferenceLatency
			r.Kind = KindMetric
			r.Value = float64(rng.Intn(1 << 20))
			r.Unit = "ns"
		default:
			r.Key = KeySensorOrientation
			r.Kind = KindSensor
			r.Value = float64(rng.Intn(360))
			r.Unit = "deg"
		}
		l.Records = append(l.Records, r)
	}
	return l
}

// Property: any log — all kinds, all dtypes, quantized params, empty logs —
// survives JSONL→binary→JSONL byte-identically.
func TestCrossCodecRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		l := randomLog(seed)
		want := jsonlBytes(t, l)
		back := roundTrip(t, roundTrip(t, l, FormatJSONL), FormatBinary)
		return bytes.Equal(jsonlBytes(t, back), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestEmptyLogRoundTrip pins both codecs on the degenerate log: an empty
// binary log is just the header and still auto-detects; an empty JSONL log
// is zero bytes.
func TestEmptyLogRoundTrip(t *testing.T) {
	empty := &Log{}
	for _, format := range []LogFormat{FormatJSONL, FormatBinary} {
		if back := roundTrip(t, empty, format); len(back.Records) != 0 {
			t.Errorf("%v: empty log read back %d records", format, len(back.Records))
		}
	}
	var buf bytes.Buffer
	if err := empty.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes(); !bytes.Equal(got, []byte("MLXB\x01")) {
		t.Errorf("empty binary log = %q, want bare MLXB header", got)
	}
}

// TestBinaryHeaderPinned pins the on-disk header so the format cannot drift
// silently, and checks version/garbage rejection.
func TestBinaryHeaderPinned(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenTelemetryLog().WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("MLXB\x01")) {
		t.Fatalf("binary log starts %q, want MLXB\\x01", buf.Bytes()[:5])
	}
	if _, err := readAll(NewBinaryDecoder(strings.NewReader("MLXB\x02rest"))); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Errorf("future version accepted: %v", err)
	}
	if _, err := readAll(NewBinaryDecoder(strings.NewReader("not a log"))); err == nil {
		t.Error("garbage accepted as binary log")
	}
	// Truncated mid-record fails loudly, not silently short.
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, err := readAll(NewBinaryDecoder(bytes.NewReader(trunc))); err == nil {
		t.Error("truncated binary log read without error")
	}
}

// TestOpenLogAutoDetect routes each encoding to its decoder and treats an
// empty stream as an empty JSONL log.
func TestOpenLogAutoDetect(t *testing.T) {
	l := goldenTelemetryLog()
	for _, format := range []LogFormat{FormatJSONL, FormatBinary} {
		var buf bytes.Buffer
		if err := l.Write(&buf, format); err != nil {
			t.Fatal(err)
		}
		back, err := ReadLog(&buf)
		if err != nil {
			t.Fatalf("%v: %v", format, err)
		}
		if len(back.Records) != len(l.Records) {
			t.Errorf("%v: %d records, want %d", format, len(back.Records), len(l.Records))
		}
	}
	empty, err := ReadLog(strings.NewReader(""))
	if err != nil || len(empty.Records) != 0 {
		t.Errorf("empty stream: %v, %d records", err, len(empty.Records))
	}
}

// TestBinarySmallerThanJSONL quantifies the point of the binary format:
// full-tensor logs shed the base64 expansion plus the JSON framing.
func TestBinarySmallerThanJSONL(t *testing.T) {
	l := goldenTelemetryLog()
	jb, err := l.EncodedSize(FormatJSONL)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := l.EncodedSize(FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	if bb >= jb {
		t.Errorf("binary log (%dB) not smaller than JSONL (%dB)", bb, jb)
	}
}

// TestDecodeTensorDequantizesI8 is the regression test for the quantized-
// capture decode asymmetry: I8 records with QScale set must decode in real
// units, exactly like U8 records always have.
func TestDecodeTensorDequantizesI8(t *testing.T) {
	for _, dt := range []tensor.DType{tensor.U8, tensor.I8} {
		tt := tensor.New(dt, 4)
		for i := 0; i < tt.Len(); i++ {
			tt.SetAt(float64(i*10), i)
		}
		var r Record
		r.Key = "q"
		r.EncodeTensor(tt, true)
		r.QScale = 0.5
		r.QZero = 2
		back, err := r.DecodeTensor()
		if err != nil {
			t.Fatalf("%v: %v", dt, err)
		}
		if back.DType != tensor.F32 {
			t.Fatalf("%v: quantized capture decoded as %v, want dequantized f32", dt, back.DType)
		}
		for i := 0; i < back.Len(); i++ {
			want := 0.5 * float64(i*10-2)
			if got := back.At(i); got != want {
				t.Errorf("%v[%d] = %v, want %v", dt, i, got, want)
			}
		}
	}
	// Unquantized integer records still decode raw.
	raw := tensor.New(tensor.I8, 3)
	raw.I[1] = -7
	var r Record
	r.EncodeTensor(raw, true)
	back, err := r.DecodeTensor()
	if err != nil {
		t.Fatal(err)
	}
	if back.DType != tensor.I8 || back.I[1] != -7 {
		t.Errorf("unquantized i8 decode = %v", back)
	}
}

// TestLazyPayloadIsRaw pins the lazy-payload design: EncodeTensor stores raw
// little-endian bytes (1 byte per u8 element, no base64 expansion), and the
// JSONL base64 only materializes at serialization time.
func TestLazyPayloadIsRaw(t *testing.T) {
	tt := tensor.New(tensor.U8, 300)
	for i := range tt.U {
		tt.U[i] = uint8(i)
	}
	var r Record
	r.Key = "t"
	r.EncodeTensor(tt, true)
	if len(r.Payload) != 300 {
		t.Fatalf("payload = %d bytes, want 300 raw bytes", len(r.Payload))
	}
	data, err := r.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"data":"`)) {
		t.Error("JSONL wire format lost the base64 data field")
	}
	var back Record
	if err := back.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Payload, r.Payload) {
		t.Error("payload changed across JSON round trip")
	}
}

// TestReadLogRejectsBadBase64 keeps corrupted JSONL payloads failing loudly
// (now at read time, where the base64 is decoded).
func TestReadLogRejectsBadBase64(t *testing.T) {
	line := `{"seq":0,"frame":0,"key":"t","kind":"tensor","shape":[1],"dtype":"u8","data":"!!!"}` + "\n"
	if _, err := ReadLog(strings.NewReader(line)); err == nil {
		t.Error("corrupt base64 payload accepted")
	}
}

// TestDecodeTensorRejectsCorruptShape hardens the validate-from-file path:
// a crafted or corrupt log whose shape disagrees with its payload must
// error, not panic on a negative dim or allocate terabytes from an
// implausible dim product.
func TestDecodeTensorRejectsCorruptShape(t *testing.T) {
	base := Record{Kind: KindTensor, Key: "t", DType: "f32", Payload: make([]byte, 24)}
	for name, shape := range map[string][]int{
		"negative dim":     {-1, 6},
		"huge dim":         {1 << 40},
		"overflow product": {1 << 20, 1 << 20, 1 << 20},
		"payload mismatch": {7},
	} {
		r := base
		r.Shape = shape
		if _, err := r.DecodeTensor(); err == nil {
			t.Errorf("%s: shape %v accepted", name, shape)
		}
	}
	// And the same corruption arriving through the binary codec fails at
	// decode-tensor time with an error, not a panic.
	r := base
	r.Shape = []int{-1, 6}
	var buf bytes.Buffer
	if err := (&Log{Records: []Record{r}}).WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := back.Records[0].DecodeTensor(); err == nil {
		t.Error("corrupt binary record decoded without error")
	}
}

// TestLogEncoderUnknownFormat covers the constructor guards.
func TestLogEncoderUnknownFormat(t *testing.T) {
	if _, err := NewLogEncoder(io.Discard, LogFormat(42)); err == nil {
		t.Error("unknown format accepted by NewLogEncoder")
	}
	if _, err := NewLogSink(io.Discard, LogFormat(42)); err == nil {
		t.Error("unknown format accepted by NewLogSink")
	}
	if _, err := ParseLogFormat("xml"); err == nil {
		t.Error("unknown format name parsed")
	}
	for _, f := range []LogFormat{FormatJSONL, FormatBinary} {
		if parsed, err := ParseLogFormat(f.String()); err != nil || parsed != f {
			t.Errorf("ParseLogFormat(%q) = %v, %v", f.String(), parsed, err)
		}
	}
}

// decodeAll drains a decoder, returning the records read before the first
// error and that error's text ("" at a clean end).
func decodeAll(dec LogDecoder, openErr error) ([]Record, string) {
	if openErr != nil {
		return nil, "open: " + openErr.Error()
	}
	var recs []Record
	for {
		rec, err := dec.Next()
		if err == io.EOF {
			return recs, ""
		}
		if err != nil {
			return recs, err.Error()
		}
		recs = append(recs, rec)
	}
}

// TestOpenLogBytesMatchesOpenLog is the differential pin of the in-place
// binary decoder: on a valid log, on every truncation of it and on
// single-byte corruptions, OpenLogBytes yields exactly what the streaming
// OpenLog yields — the same records, then the same error text. JSONL and
// gzip bodies take the streaming path either way.
func TestOpenLogBytesMatchesOpenLog(t *testing.T) {
	check := func(what string, buf []byte) {
		t.Helper()
		sdec, _, serr := OpenLog(bytes.NewReader(buf))
		want, wantErr := decodeAll(sdec, serr)
		mdec, _, merr := OpenLogBytes(buf)
		got, gotErr := decodeAll(mdec, merr)
		if gotErr != wantErr {
			t.Fatalf("%s: in-place error %q, streaming %q", what, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: in-place decoded %d records that differ from streaming's %d", what, len(got), len(want))
		}
	}
	for seed := int64(0); seed < 12; seed++ {
		l := randomLog(seed)
		for _, format := range []LogFormat{FormatBinary, FormatJSONL} {
			var buf bytes.Buffer
			if err := l.Write(&buf, format); err != nil {
				t.Fatal(err)
			}
			whole := buf.Bytes()
			check(fmt.Sprintf("seed %d %v whole", seed, format), whole)
			if format != FormatBinary {
				continue
			}
			for cut := 0; cut < len(whole); cut++ {
				check(fmt.Sprintf("seed %d cut at %d", seed, cut), whole[:cut])
			}
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200 && len(whole) > 0; i++ {
				bad := bytes.Clone(whole)
				bad[rng.Intn(len(bad))] ^= byte(1 + rng.Intn(255))
				check(fmt.Sprintf("seed %d corruption %d", seed, i), bad)
			}
		}
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if err := goldenTelemetryLog().WriteBinary(zw); err != nil {
		t.Fatal(err)
	}
	zw.Close()
	check("gzip binary", gz.Bytes())
}

// TestOpenLogBytesAliasesOnlyPlainBinary pins the aliasing rule callers
// rely on: a plain binary log's payloads point into the buffer (no copy),
// while gzip and JSONL logs hand out payloads of their own.
func TestOpenLogBytesAliasesOnlyPlainBinary(t *testing.T) {
	l := goldenTelemetryLog()
	encode := func(format LogFormat, gz bool) []byte {
		var buf bytes.Buffer
		var w io.Writer = &buf
		var zw *gzip.Writer
		if gz {
			zw = gzip.NewWriter(&buf)
			w = zw
		}
		if err := l.Write(w, format); err != nil {
			t.Fatal(err)
		}
		if zw != nil {
			zw.Close()
		}
		return buf.Bytes()
	}
	for _, c := range []struct {
		name    string
		buf     []byte
		aliases bool
	}{
		{"binary", encode(FormatBinary, false), true},
		{"binary gzip", encode(FormatBinary, true), false},
		{"jsonl", encode(FormatJSONL, false), false},
	} {
		dec, _, err := OpenLogBytes(c.buf)
		recs, errText := decodeAll(dec, err)
		if errText != "" || len(recs) != len(l.Records) {
			t.Fatalf("%s: decoded %d/%d records, err %q", c.name, len(recs), len(l.Records), errText)
		}
		pristine := make([][]byte, len(recs))
		for i := range recs {
			pristine[i] = bytes.Clone(recs[i].Payload)
		}
		for i := range c.buf { // what a reused buffer does to its old contents
			c.buf[i] = 0xAA
		}
		changed := false
		for i := range recs {
			if !bytes.Equal(recs[i].Payload, pristine[i]) {
				changed = true
			}
			if recs[i].Key != l.Records[i].Key || !reflect.DeepEqual(recs[i].Shape, l.Records[i].Shape) {
				t.Fatalf("%s: record %d's key or shape changed with the buffer", c.name, i)
			}
		}
		if changed != c.aliases {
			t.Errorf("%s: payloads alias the buffer = %v, want %v", c.name, changed, c.aliases)
		}
	}
}

// TestLogEncoderReset: an encoder restarted on a new writer produces a
// standalone stream, header included, byte-identical to a fresh encoder's.
func TestLogEncoderReset(t *testing.T) {
	l := goldenTelemetryLog()
	for _, format := range []LogFormat{FormatJSONL, FormatBinary} {
		var want bytes.Buffer
		if err := l.Write(&want, format); err != nil {
			t.Fatal(err)
		}
		var first, second bytes.Buffer
		enc, err := NewLogEncoder(&first, format)
		if err != nil {
			t.Fatal(err)
		}
		for _, out := range []*bytes.Buffer{&first, &second} {
			enc.Reset(out)
			for i := range l.Records {
				if err := enc.EncodeRecord(&l.Records[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := enc.Flush(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want.Bytes()) {
				t.Errorf("%v: stream after Reset differs from a fresh encoder's", format)
			}
		}
	}
}

// chunkReader hands its bytes out in reads of at most step, so a decoder over
// it sees a window that ends at arbitrary offsets.
type chunkReader struct {
	data []byte
	step int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), c.step)], c.data)
	c.data = c.data[n:]
	return n, nil
}

// streamDecoder is NewBinaryDecoder with the slab shrunk, so a few dozen
// bytes of log cross as many slab boundaries as a production log of
// gigabytes.
func streamDecoder(data []byte, slab, step int) *BinaryDecoder {
	return &BinaryDecoder{src: slabReader{r: &chunkReader{data, step}, slab: slab}}
}

// FuzzBinaryDecodersAgree is the differential of the binary decoder's two
// sources (ROADMAP 7c): on arbitrary bytes the in-place decoder, the
// streaming decoder at its production slab and the streaming decoder with
// slab boundaries and short reads all over the input give the same records,
// then the same error text. A bare input gets the MLXB header spliced on, so
// the fuzzer spends its time past the magic check.
func FuzzBinaryDecodersAgree(f *testing.F) {
	golden, err := os.ReadFile("testdata/golden.mlxb")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden, uint8(0), uint8(0))
	f.Add(golden, uint8(7), uint8(3))
	f.Add(golden[:len(golden)*2/3], uint8(40), uint8(1))
	f.Add([]byte("MLXB\x01"), uint8(1), uint8(1))
	f.Add([]byte("MLXB\x01\x80\x80\x80\x80\x04abc"), uint8(2), uint8(9)) // a 2³⁰-byte record, 3 bytes of it
	f.Add([]byte{0x03, 0, 0, 0}, uint8(3), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, slab, step uint8) {
		if !bytes.HasPrefix(data, binaryMagic) {
			data = append([]byte("MLXB\x01"), data...)
		}
		inPlace, _, err := OpenLogBytes(data)
		want, wantErr := decodeAll(inPlace, err)
		for name, dec := range map[string]*BinaryDecoder{
			"production slab": NewBinaryDecoder(bytes.NewReader(data)),
			"tiny slab":       streamDecoder(data, 1+int(slab), 1+int(step)),
		} {
			got, gotErr := decodeAll(dec, nil)
			if gotErr != wantErr {
				t.Fatalf("%s: error %q, in place %q", name, gotErr, wantErr)
			}
			if !sameRecordBytes(got, want) {
				t.Fatalf("%s: %d records that differ from the in-place decoder's %d", name, len(got), len(want))
			}
		}
	})
}

// sameRecordBytes compares records by their binary encoding, which unlike
// reflect.DeepEqual holds a NaN equal to itself.
func sameRecordBytes(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(appendRecordBinary(nil, &a[i]), appendRecordBinary(nil, &b[i])) {
			return false
		}
	}
	return true
}

// TestStreamedRecordsOutliveTheDecoder pins the streaming decoder's aliasing
// rule: a payload is a slice of the slab it arrived in and no slab is ever
// written twice, so after the decoder has read the whole stream — and the
// stream's own buffer has been overwritten — every record still equals the
// in-place decode of a pristine copy. Once with slab boundaries inside
// almost every record, once at the production slab over a log several slabs
// long with a record longer than a slab in the middle.
func TestStreamedRecordsOutliveTheDecoder(t *testing.T) {
	small := goldenTelemetryLog()
	for seed := int64(0); seed < 6; seed++ {
		small.Records = append(small.Records, randomLog(seed).Records...)
	}
	large := &Log{}
	for i, elems := range []int{40_000, 90_000, 400_000, 1, 70_000, 130_000, 0, 260_000} {
		tt := tensor.New(tensor.F32, elems)
		for j := range tt.F {
			tt.F[j] = float32(i*elems + j)
		}
		var r Record
		r.Seq, r.Frame, r.Key = i, i/3, LayerOutputKey(fmt.Sprintf("l%d", i))
		r.EncodeTensor(tt, true)
		large.Records = append(large.Records, r)
	}
	for _, c := range []struct {
		name string
		log  *Log
		open func(data []byte) LogDecoder
	}{
		{"slab of 48 bytes, reads of 5", small, func(data []byte) LogDecoder { return streamDecoder(data, 48, 5) }},
		{"production slab", large, func(data []byte) LogDecoder { return NewBinaryDecoder(bytes.NewReader(data)) }},
	} {
		var buf bytes.Buffer
		if err := c.log.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		pristine := bytes.Clone(buf.Bytes())
		got, errText := decodeAll(c.open(buf.Bytes()), nil)
		if errText != "" {
			t.Fatalf("%s: %s", c.name, errText)
		}
		for i := range buf.Bytes() {
			buf.Bytes()[i] = 0xAA
		}
		mdec, _, err := OpenLogBytes(pristine)
		want, errText := decodeAll(mdec, err)
		if errText != "" || len(want) != len(c.log.Records) {
			t.Fatalf("%s: in-place decode: %d records, error %q", c.name, len(want), errText)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: streamed records changed after the decoder read on", c.name)
		}
	}
}

// allocatedBytes is what run allocated, live or not (MemStats.TotalAlloc).
func allocatedBytes(run func()) int {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	return int(after.TotalAlloc - before.TotalAlloc)
}

// TestBinaryDecoderLyingLengthIsBounded: a length prefix reserves nothing.
// The stream announces a 2³⁰-byte record and ends after `received` bytes of
// it (at 3, this is the 13-byte stream that used to cost 1 GiB); the decoder
// fails as a truncated stream does, the buffer it was filling is no larger
// than twice what arrived plus one slab, and the doubling that got it there
// allocated at most twice that in total.
func TestBinaryDecoderLyingLengthIsBounded(t *testing.T) {
	for _, received := range []int{3, binarySlab - 11, 2*binarySlab + 1, 5 * binarySlab} {
		stream := append([]byte("MLXB\x01\x80\x80\x80\x80\x04"), make([]byte, received)...)
		dec := NewBinaryDecoder(bytes.NewReader(stream))
		var recs []Record
		var errText string
		allocated := allocatedBytes(func() { recs, errText = decodeAll(dec, nil) })
		if len(recs) != 0 || errText != "core: binary log record body: unexpected EOF" {
			t.Fatalf("%d bytes received: %d records, error %q", received, len(recs), errText)
		}
		bound := 2*received + binarySlab
		if got := cap(dec.src.buf); got > bound {
			t.Errorf("%d bytes received: the record buffer grew to %d bytes, want <= %d", received, got, bound)
		}
		if allocated > 2*bound+64<<10 {
			t.Errorf("%d bytes received: decoding allocated %d bytes, want <= %d", received, allocated, 2*bound)
		}
	}
}
