package core

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"testing"

	"mlexray/internal/tensor"
)

// wireOracle is the encoder the appender replaced: encoding/json over the
// recordWire struct, base64 string and all. It is what "byte-identical"
// means.
func wireOracle(r *Record) ([]byte, error) {
	w := recordWire{
		Seq: r.Seq, Frame: r.Frame, Key: r.Key, Kind: r.Kind,
		LayerIndex: r.LayerIndex, LayerName: r.LayerName, OpType: r.OpType,
		Shape: r.Shape, DType: r.DType, Stats: r.Stats,
		QScale: r.QScale, QZero: r.QZero, Value: r.Value, Unit: r.Unit,
	}
	if len(r.Payload) > 0 {
		w.Data = base64.StdEncoding.EncodeToString(r.Payload)
	}
	b, err := json.Marshal(w)
	return append(b, '\n'), err
}

// decodedForm is what a record reads back as: invalid UTF-8 has become
// U+FFFD byte by byte, and the omitempty slices come back nil.
func decodedForm(r Record) Record {
	valid := func(s string) string { return string([]rune(s)) }
	r.Key, r.Kind, r.LayerName = valid(r.Key), RecordKind(valid(string(r.Kind))), valid(r.LayerName)
	r.OpType, r.DType, r.Unit = valid(r.OpType), valid(r.DType), valid(r.Unit)
	if len(r.Shape) == 0 {
		r.Shape = nil
	}
	if len(r.Payload) == 0 {
		r.Payload = nil
	}
	return r
}

// checkRecordJSONL holds one record to the byte-identity rule (DESIGN.md
// §2): the appender's line is the oracle's, behind whatever dst already
// held; the tail entry point and MarshalJSON agree with it; the line reads
// back through JSONLDecoder; and a record the oracle refuses is refused with
// the documented text and leaves dst alone.
func checkRecordJSONL(t testing.TB, r *Record) {
	t.Helper()
	const prefix = "staged\n"
	want, oracleErr := wireOracle(r)
	got, err := appendRecordJSONL([]byte(prefix), r)
	if oracleErr != nil {
		if err == nil {
			t.Fatalf("appender accepted a record encoding/json refuses (%v)", oracleErr)
		}
		st := tensor.Stats{}
		if r.Stats != nil {
			st = *r.Stats
		}
		wantErr := ""
		for _, f := range []struct {
			name string
			v    float64
		}{{"stats.min", st.Min}, {"stats.max", st.Max}, {"stats.mean", st.Mean}, {"stats.rms", st.RMS}, {"qscale", r.QScale}, {"value", r.Value}} {
			if math.IsNaN(f.v) || math.IsInf(f.v, 0) { // the first in line order is the one named
				wantErr = fmt.Sprintf("core: record %q field %s: unsupported value %s", r.Key, f.name, strconv.FormatFloat(f.v, 'g', -1, 64))
				break
			}
		}
		if err.Error() != wantErr {
			t.Fatalf("error %q, want %q", err, wantErr)
		}
		if string(got) != prefix {
			t.Fatalf("failed record left %q staged", got[len(prefix):])
		}
		if _, mErr := r.MarshalJSON(); mErr == nil || mErr.Error() != wantErr {
			t.Fatalf("MarshalJSON error %v, want %q", mErr, wantErr)
		}
		return
	}
	if err != nil {
		t.Fatalf("appender refused a record encoding/json accepts: %v", err)
	}
	if !bytes.HasPrefix(got, []byte(prefix)) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("line differs from encoding/json\n got %q\nwant %q", got[len(prefix):], want)
	}
	if m, err := r.MarshalJSON(); err != nil || !bytes.Equal(m, want[:len(want)-1]) {
		t.Fatalf("MarshalJSON = %q, %v; want the line without its newline", m, err)
	}
	var viaJSON bytes.Buffer // encoding/json calling MarshalJSON and compacting it
	if err := json.NewEncoder(&viaJSON).Encode(r); err != nil || !bytes.Equal(viaJSON.Bytes(), want) {
		t.Fatalf("json.Encoder over the record = %q, %v", viaJSON.Bytes(), err)
	}
	tail, err := appendRecordTail(nil, r)
	if err != nil || !bytes.HasSuffix(want, tail) || !bytes.HasPrefix(want, []byte(jsonlSeqOpen)) {
		t.Fatalf("tail %q (%v) is not the line's tail", tail, err)
	}
	back, err := NewJSONLDecoder(bytes.NewReader(want)).Next()
	if err != nil {
		t.Fatalf("line does not decode: %v\n%q", err, want)
	}
	if wantBack := decodedForm(*r); !reflect.DeepEqual(back, wantBack) {
		t.Fatalf("line read back as\n%+v\nwant\n%+v", back, wantBack)
	}
}

// hostileStrings covers every class of the escape table: plain, each short
// escape, the other control bytes, the HTML three, DEL (not escaped), U+2028
// and U+2029, multi-byte runes, and invalid UTF-8 in every position.
var hostileStrings = []string{
	"", "layer/conv1/output", `quo"te\back`, "\b\f\n\r\t", "\x00\x01\x1f\x7f", "<script>&amp;</script>",
	"line\xe2\x80\xa8sep\xe2\x80\xa9", "caf\xc3\xa9 \xe6\x97\xa5\xe6\x9c\xac \xf0\x9f\x98\x80", "\xff", "a\xc3", "\xe2\x80", "\xed\xa0\x80ok", "\xf8\x88\x80\x80\x80",
}

// hostileFloats covers the float rule's edges: both zeros, the 'e'/'f'
// cutoffs from either side, the e-09 clean-up, denormals and the extremes.
var hostileFloats = []float64{
	0, math.Copysign(0, -1), 1, -1.5, 0.1, 1e-7, -1e-7, 1e-6, 9.999999e-7, 1e-9, 1.5e-10, 1e20, 1e21, -1e21, 123456789012345678901,
	5e-324, 2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 100, 1e6, 0.000001234, 3.141592653589793,
}

// randomHostileRecord draws every field from the hostile pools.
func randomHostileRecord(rng *rand.Rand) Record {
	str := func() string { return hostileStrings[rng.Intn(len(hostileStrings))] }
	flt := func() float64 {
		if rng.Intn(3) == 0 {
			return math.Float64frombits(rng.Uint64()) // any bit pattern, NaN and Inf included
		}
		return hostileFloats[rng.Intn(len(hostileFloats))]
	}
	r := Record{
		Seq: rng.Intn(1<<31) - 1<<20, Frame: rng.Intn(1 << 20), Key: str(), Kind: RecordKind(str()),
		LayerIndex: rng.Intn(5) - 2, LayerName: str(), OpType: str(), DType: str(),
		QZero: int32(rng.Intn(7) - 3), Unit: str(),
	}
	if rng.Intn(2) == 0 {
		r.QScale, r.Value = flt(), flt()
	}
	if rng.Intn(2) == 0 {
		r.Stats = &tensor.Stats{Min: flt(), Max: flt(), Mean: flt(), RMS: flt(), N: rng.Intn(1<<16) - 4}
	}
	switch rng.Intn(3) {
	case 0:
		r.Shape = []int{}
	case 1:
		r.Shape = []int{rng.Intn(9) - 4, rng.Intn(1 << 30), -1 << 40}[:1+rng.Intn(3)]
	}
	switch rng.Intn(3) {
	case 0:
		r.Payload = []byte{}
	case 1:
		r.Payload = make([]byte, rng.Intn(70)) // every base64 padding length
		rng.Read(r.Payload)
	}
	return r
}

// TestRecordJSONLMatchesEncodingJSON is the byte-identity property: over
// every hostile string and float in every field, and over random draws of
// whole records, the appender writes what encoding/json wrote.
func TestRecordJSONLMatchesEncodingJSON(t *testing.T) {
	for _, s := range hostileStrings {
		checkRecordJSONL(t, &Record{Key: s, Kind: RecordKind(s), LayerName: s, OpType: s, DType: s, Unit: s})
	}
	for _, f := range hostileFloats {
		checkRecordJSONL(t, &Record{Key: "f", Kind: KindMetric, QScale: f, Value: f,
			Stats: &tensor.Stats{Min: f, Max: -f, Mean: f / 3, RMS: f * 7, N: 3}})
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		checkRecordJSONL(t, &Record{Key: "diverged", QScale: f})
		checkRecordJSONL(t, &Record{Key: "diverged", Value: f})
		checkRecordJSONL(t, &Record{Key: "diverged", Stats: &tensor.Stats{RMS: f}, Value: f})
	}
	golden := goldenTelemetryLog()
	for i := range golden.Records {
		checkRecordJSONL(t, &golden.Records[i])
	}
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 4000; i++ {
		r := randomHostileRecord(rng)
		checkRecordJSONL(t, &r)
	}
}

// FuzzRecordJSONL lets the fuzzer pick the strings, floats, dims and payload
// checkRecordJSONL holds to the oracle. flags: bit 0 stats present, bit 1
// shape present, bit 2 a third dim.
func FuzzRecordJSONL(f *testing.F) {
	for i, s := range hostileStrings {
		fl := hostileFloats[i%len(hostileFloats)]
		f.Add(s, "tensor", s, "ns", i-3, 1<<i, -i, fl, -fl, fl*0.5, int32(i-2), []byte(s), uint8(i))
	}
	f.Add("layer/x/output", "stats", "x", "", 4095, 7, 1<<40, math.NaN(), 1.0, math.Inf(-1), int32(0), []byte{0, 1, 2, 3}, uint8(7))
	// Payload lengths around appendBase64's 8-byte load and 6-byte step, and
	// one long enough to stay in its main loop.
	for n := 0; n <= 4<<10; n++ {
		if n == 18 {
			n = 4 << 10
		}
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i*131 + n)
		}
		f.Add("layer/x/output", "tensor", "x", "", n, 1, n, 0.0, 0.5, 0.0, int32(3), payload, uint8(3))
	}
	f.Fuzz(func(t *testing.T, key, kind, name, unit string, seq, frame, dim int, a, b, c float64, qzero int32, payload []byte, flags uint8) {
		r := Record{Seq: seq, Frame: frame, Key: key, Kind: RecordKind(kind), LayerIndex: dim % 5, LayerName: name,
			OpType: kind, DType: unit, Payload: payload, QScale: b, QZero: qzero, Value: c, Unit: unit}
		if flags&1 != 0 {
			r.Stats = &tensor.Stats{Min: a, Max: b, Mean: c, RMS: a * c, N: frame}
		}
		if flags&2 != 0 {
			r.Shape = []int{dim, -frame, seq}[:2+int(flags>>2&1)]
		}
		checkRecordJSONL(t, &r)
	})
}

// TestJSONLNonFiniteIsADocumentedError pins the non-finite contract: the
// same text from EncodeRecord, PreEncodeFrame and MarshalJSON, naming record
// and field, and not one byte of the refused record in the stream — the
// lines around it are whole.
func TestJSONLNonFiniteIsADocumentedError(t *testing.T) {
	good := Record{Seq: 1, Frame: 1, Key: KeyInferenceLatency, Kind: KindMetric, Value: 5, Unit: "ns"}
	bad := Record{Seq: 2, Frame: 1, Key: "layer/fc/output", Kind: KindStats, Stats: &tensor.Stats{Min: -1, Max: math.NaN(), N: 4}}
	const want = `core: record "layer/fc/output" field stats.max: unsupported value NaN`

	var out bytes.Buffer
	enc := NewJSONLEncoder(&out)
	if err := enc.EncodeRecord(&good); err != nil {
		t.Fatal(err)
	}
	if err := enc.EncodeRecord(&bad); err == nil || err.Error() != want {
		t.Fatalf("EncodeRecord error %v, want %q", err, want)
	}
	if err := enc.EncodeRecord(&good); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	line, _ := wireOracle(&good)
	if got := out.String(); got != string(line)+string(line) {
		t.Errorf("stream around the refused record = %q", got)
	}

	sink := NewJSONLSink(io.Discard)
	if _, err := sink.PreEncodeFrame([]Record{good, bad}); err == nil || err.Error() != want {
		t.Errorf("PreEncodeFrame error %v, want %q", err, want)
	}
	if _, err := bad.MarshalJSON(); err == nil || err.Error() != want {
		t.Errorf("MarshalJSON error %v, want %q", err, want)
	}
	// Through the wrappers the text is still there, behind their position.
	err := (&Log{Records: []Record{good, bad}}).WriteJSONL(io.Discard)
	if err == nil || err.Error() != "core: encode record 1: "+want {
		t.Errorf("WriteJSONL error %v", err)
	}
	for want, r := range map[string]Record{
		`core: record "k" field qscale: unsupported value +Inf`: {Key: "k", QScale: math.Inf(1), Value: math.NaN()},
		`core: record "k" field value: unsupported value -Inf`:  {Key: "k", Value: math.Inf(-1)},
	} {
		if _, err := r.MarshalJSON(); err == nil || err.Error() != want {
			t.Errorf("error %v, want %q", err, want)
		}
	}
	// The binary format has a spelling for every float and takes the record.
	if err := (&Log{Records: []Record{bad}}).WriteBinary(io.Discard); err != nil {
		t.Errorf("binary format refused a NaN record: %v", err)
	}
}

// TestJSONLDivergedFullCaptureIsLogged is the other side of that contract: a
// full capture of a diverged layer (NaN and ±Inf activations) carries its
// values only as payload bits, so every JSONL path takes the record and it
// reads back bit for bit. Only a stats-only record, qscale and value can be
// refused.
func TestJSONLDivergedFullCaptureIsLogged(t *testing.T) {
	tt := tensor.New(tensor.F32, 6)
	copy(tt.F, []float32{1.5, float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), -0.25, 0})
	m := NewMonitor(WithCaptureMode(CaptureFull))
	m.NextFrame()
	m.LogTensor(LayerOutputKey("fc"), tt)
	recs := m.Drain()
	if len(recs) != 1 || recs[0].Kind != KindTensor || recs[0].Stats != nil {
		t.Fatalf("full capture recorded %+v, want one tensor record without stats", recs)
	}
	want := appendTensorPortable(nil, tt)
	readsBack := func(path string, stream []byte, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s refused the diverged capture: %v", path, err)
		}
		back, err := NewJSONLDecoder(bytes.NewReader(stream)).Next()
		if err != nil || !bytes.Equal(back.Payload, want) {
			t.Fatalf("%s: read back payload %x (%v), want %x", path, back.Payload, err, want)
		}
	}

	var out bytes.Buffer
	enc := NewJSONLEncoder(&out)
	err := errors.Join(enc.EncodeRecord(&recs[0]), enc.Flush())
	readsBack("JSONLEncoder", out.Bytes(), err)

	out.Reset()
	sink := NewJSONLSink(&out)
	pf, err := sink.PreEncodeFrame(recs)
	if err == nil {
		err = errors.Join(sink.WritePreEncoded(1, pf, 0), sink.Flush())
	}
	readsBack("PreEncodeFrame", out.Bytes(), err)

	line, err := recs[0].MarshalJSON()
	readsBack("MarshalJSON", line, err)
}

// TestPreEncodeMatchesWriteFrameAnySeq extends the FramePreEncoder contract
// to hostile records and random sequence bases of every digit count.
func TestPreEncodeMatchesWriteFrameAnySeq(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, base := range []int{0, 9, 10, 99, 4095, 99999, 1 << 40, rng.Intn(1 << 30), rng.Intn(1 << 50)} {
		var recs []Record
		for len(recs) < 12 {
			r := randomHostileRecord(rng)
			if r.checkFinite() == nil {
				recs = append(recs, r)
			}
		}
		var want, got bytes.Buffer
		ws := NewJSONLSink(&want)
		for i := range recs {
			recs[i].Seq = base + i
		}
		if err := errors.Join(ws.WriteFrame(1, recs), ws.Flush()); err != nil {
			t.Fatal(err)
		}
		for i := range recs {
			recs[i].Seq = -1 // pre-encoding must not read it
		}
		gs := NewJSONLSink(&got)
		pf, err := gs.PreEncodeFrame(recs)
		if err != nil {
			t.Fatal(err)
		}
		if err := errors.Join(gs.WritePreEncoded(1, pf, base), gs.Flush()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) || gs.Bytes() != ws.Bytes() || gs.Records() != len(recs) {
			t.Fatalf("seq base %d: pre-encoded stream differs from WriteFrame", base)
		}
	}
}

// TestJSONLEncodeSteadyStateAllocs pins the encoder's allocation contract: on
// a warmed encoder a record costs no allocation at all, whatever its size.
func TestJSONLEncodeSteadyStateAllocs(t *testing.T) {
	// A frame shaped like a full per-layer capture: large float tensors with
	// provenance and stats, a metric beside each.
	m := NewMonitor(WithCaptureMode(CaptureFull))
	m.NextFrame()
	for i, n := range []int{3072, 8192, 4096, 1024, 10} {
		tt := tensor.New(tensor.F32, n)
		for j := range tt.F {
			tt.F[j] = float32(j%97) * 0.125
		}
		name := fmt.Sprintf("conv%d", i)
		m.LogTensor(LayerOutputKey(name), tt)
		m.LogMetric(LayerLatencyKey(name), float64(1000+i), "ns")
	}
	recs := m.Drain()
	enc := NewJSONLEncoder(io.Discard)
	encode := func() {
		for i := range recs {
			if err := enc.EncodeRecord(&recs[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	encode() // warm: the line buffer grows to the largest record once
	if allocs := testing.AllocsPerRun(20, encode); allocs != 0 {
		t.Errorf("steady-state EncodeRecord: %v allocs per %d-record frame, want 0", allocs, len(recs))
	}
}

// TestJSONLDecoderScanBuffer pins both ends of the decoder's line buffer: it
// starts small, so a short log does not cost a megabyte to open, and still
// grows to take a line far beyond its old 1 MiB start.
func TestJSONLDecoderScanBuffer(t *testing.T) {
	small := jsonlBytes(t, &Log{Records: goldenTelemetryLog().Records[:2]})
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	l, err := readAll(NewJSONLDecoder(bytes.NewReader(small)))
	runtime.ReadMemStats(&ms)
	if err != nil || len(l.Records) != 2 {
		t.Fatalf("two-record log read back %v, %v", l, err)
	}
	if got := ms.TotalAlloc - before; got >= 128<<10 {
		t.Errorf("opening and draining a two-record log allocated %d bytes, want < 128 KiB", got)
	}

	big := Record{Key: "big", Kind: KindTensor, DType: "u8", Shape: []int{3 << 19}, Payload: make([]byte, 3<<19)}
	for i := range big.Payload {
		big.Payload[i] = byte(i * 31)
	}
	line, err := appendRecordJSONL(nil, &big)
	if err != nil || len(line) <= 1<<20 {
		t.Fatalf("fixture line is %d bytes (%v), want over 1 MiB", len(line), err)
	}
	back, err := NewJSONLDecoder(bytes.NewReader(line)).Next()
	if err != nil || !bytes.Equal(back.Payload, big.Payload) {
		t.Fatalf("a %d-byte line did not decode: %v", len(line), err)
	}
}
