// Package core is ML-EXray itself: the EdgeML Monitor instrumentation API
// (§3.2), the key-value telemetry data model and pluggable log codecs (JSONL
// and the length-prefixed binary format), the streaming Sink layer, the
// deployment validator (§3.4) implementing the paper's Figure 2 flowchart —
// accuracy validation, per-layer normalized-rMSE localisation, per-layer
// latency validation — and the assertion framework with the built-in
// root-cause assertions (channel arrangement, normalization range, resize
// function, orientation, quantization drift, latency budgets).
package core

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"unsafe"

	"mlexray/internal/tensor"
)

// RecordKind classifies telemetry records, following the paper's data model
// (§3.2): inputs/outputs, performance metrics, peripheral sensors.
type RecordKind string

const (
	KindTensor RecordKind = "tensor" // full tensor payload
	KindStats  RecordKind = "stats"  // tensor summary only (cheap runtime mode)
	KindMetric RecordKind = "metric" // scalar performance metric
	KindSensor RecordKind = "sensor" // peripheral sensor reading
)

// Record is one telemetry entry: a key-value pair with provenance. Every
// ML-EXray log is a sequence of Records, serialized by a LogCodec (JSONL or
// the binary format — see codec.go).
type Record struct {
	Seq   int
	Frame int
	Key   string
	Kind  RecordKind

	// Layer provenance, set on per-layer records.
	LayerIndex int
	LayerName  string
	OpType     string

	// Tensor payload (KindTensor) or summary (KindStats), never both. Payload
	// holds the raw little-endian element bytes and is kept raw in memory:
	// capture pays one memcpy-style encode, and the base64 expansion of the
	// JSONL format (or nothing at all, for the binary format) is paid only
	// at serialization time.
	Shape   []int
	DType   string
	Payload []byte
	Stats   *tensor.Stats
	// Quantization params of integer payloads: quantized layer captures are
	// stored raw (1 byte/element, the Table 3 disk advantage) and
	// dequantized on decode so comparisons happen in real units.
	QScale float64
	QZero  int32

	// Scalar payload (KindMetric / KindSensor).
	Value float64
	Unit  string
}

// recordWire is the JSON wire shape of a Record. Field order and tags define
// the JSONL log format and must never change — the golden-fixture test pins
// the serialized bytes to the pre-codec-redesign output. Decoding unmarshals
// into it; encoding is the hand-written appender in jsonl.go, which the tests
// hold byte-identical to json.Marshal of this struct.
type recordWire struct {
	Seq        int           `json:"seq"`
	Frame      int           `json:"frame"`
	Key        string        `json:"key"`
	Kind       RecordKind    `json:"kind"`
	LayerIndex int           `json:"layer_index,omitempty"`
	LayerName  string        `json:"layer_name,omitempty"`
	OpType     string        `json:"op_type,omitempty"`
	Shape      []int         `json:"shape,omitempty"`
	DType      string        `json:"dtype,omitempty"`
	Data       string        `json:"data,omitempty"` // base64 of Payload
	Stats      *tensor.Stats `json:"stats,omitempty"`
	QScale     float64       `json:"qscale,omitempty"`
	QZero      int32         `json:"qzero,omitempty"`
	Value      float64       `json:"value,omitempty"`
	Unit       string        `json:"unit,omitempty"`
}

// MarshalJSON serializes the record in the JSONL wire format: the record's
// log line (jsonl.go — the payload is base64-encoded there and not before)
// without its newline.
func (r Record) MarshalJSON() ([]byte, error) {
	line, err := appendRecordJSONL(nil, &r)
	if err != nil {
		return nil, err
	}
	return line[:len(line)-1], nil
}

// UnmarshalJSON parses the JSONL wire format, decoding the base64 payload
// back to raw bytes.
func (r *Record) UnmarshalJSON(data []byte) error {
	var w recordWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*r = Record{
		Seq: w.Seq, Frame: w.Frame, Key: w.Key, Kind: w.Kind,
		LayerIndex: w.LayerIndex, LayerName: w.LayerName, OpType: w.OpType,
		Shape: w.Shape, DType: w.DType, Stats: w.Stats,
		QScale: w.QScale, QZero: w.QZero, Value: w.Value, Unit: w.Unit,
	}
	if w.Data != "" {
		p, err := base64.StdEncoding.DecodeString(w.Data)
		if err != nil {
			return fmt.Errorf("core: record %q payload: %w", w.Key, err)
		}
		r.Payload = p
	}
	return nil
}

// EncodeTensor fills the record's tensor payload fields. Full capture stores
// the raw little-endian bytes in a payload the record owns; the textual
// (base64) expansion is deferred to JSONL serialization, and never happens on
// the binary path.
func (r *Record) EncodeTensor(t *tensor.Tensor, full bool) {
	r.describeTensor(t, full)
	if full {
		r.Payload = appendTensorLE(make([]byte, 0, t.Bytes()), t)
	}
}

// describeTensor fills everything of a tensor record but its payload: shape,
// dtype and the kind the capture depth implies, plus the summary statistics
// of a stats-only record. A full capture carries its payload instead.
func (r *Record) describeTensor(t *tensor.Tensor, full bool) {
	r.Shape = append([]int(nil), t.Shape...)
	r.DType = t.DType.String()
	r.Kind = KindTensor
	if !full {
		s := tensor.ComputeStats(t)
		r.Stats = &s
		r.Kind = KindStats
	}
}

// hostLittleEndian reports whether this host lays multi-byte elements out in
// the payload's byte order, so a tensor's backing array is already its
// payload.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// appendTensorLE appends t's element data in little-endian order: on a
// little-endian host one bulk copy of the backing array, elsewhere the
// per-element loop (appendTensorPortable — also the oracle the bulk path is
// tested against).
func appendTensorLE(buf []byte, t *tensor.Tensor) []byte {
	if !hostLittleEndian {
		return appendTensorPortable(buf, t)
	}
	switch t.DType {
	case tensor.F32:
		buf = append(buf, elemBytes(t.F)...)
	case tensor.U8:
		buf = append(buf, t.U...)
	case tensor.I8:
		buf = append(buf, elemBytes(t.I)...)
	case tensor.I32:
		buf = append(buf, elemBytes(t.X)...)
	}
	return buf
}

// elemBytes views a numeric slice's backing array as bytes, in host order.
func elemBytes[E float32 | int32 | int8](s []E) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0])))
}

// appendTensorPortable is appendTensorLE for any byte order, one element at
// a time.
func appendTensorPortable(buf []byte, t *tensor.Tensor) []byte {
	switch t.DType {
	case tensor.F32:
		for _, v := range t.F {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
		}
	case tensor.U8:
		buf = append(buf, t.U...)
	case tensor.I8:
		for _, v := range t.I {
			buf = append(buf, byte(v))
		}
	case tensor.I32:
		for _, v := range t.X {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		}
	}
	return buf
}

// tensorLayout validates a KindTensor record's dtype and shape against its
// payload and returns the element type and count. It allocates nothing: a
// corrupt or crafted log must fail here with an error, not with a panic on a
// negative dim or a huge allocation from an implausible dim product. Both
// DecodeTensor and the validator's fused drift pass (drift.go) go through
// it, so the two cannot disagree about which records are malformed or what
// the error says.
func (r *Record) tensorLayout() (dt tensor.DType, elems int, err error) {
	if r.Kind != KindTensor {
		return 0, 0, fmt.Errorf("core: record %q is %s, not a full tensor", r.Key, r.Kind)
	}
	if dt, err = tensor.ParseDType(r.DType); err != nil {
		return 0, 0, err
	}
	elems = 1
	for _, d := range r.Shape {
		if d < 0 {
			return 0, 0, fmt.Errorf("core: record %q has negative dim in shape %v", r.Key, r.Shape)
		}
		if d > 0 && elems > maxBinaryRecord/d {
			return 0, 0, fmt.Errorf("core: record %q shape %v exceeds the element limit", r.Key, r.Shape)
		}
		elems *= d
	}
	if elems*dt.Size() != len(r.Payload) {
		return 0, 0, fmt.Errorf("core: record %q has %d payload bytes for %s%v", r.Key, len(r.Payload), dt, r.Shape)
	}
	return dt, elems, nil
}

// DecodeTensor reconstructs the tensor payload of a KindTensor record.
// Integer payloads carrying quantization params (QScale set) dequantize to
// float32, so comparisons happen in real units for both u8 activations and
// i8 weights/activations.
func (r *Record) DecodeTensor() (*tensor.Tensor, error) {
	dt, _, err := r.tensorLayout()
	if err != nil {
		return nil, err
	}
	buf := r.Payload
	t := tensor.New(dt, r.Shape...)
	switch dt {
	case tensor.F32:
		for i := range t.F {
			t.F[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
		}
	case tensor.U8:
		copy(t.U, buf)
	case tensor.I8:
		for i := range t.I {
			t.I[i] = int8(buf[i])
		}
	case tensor.I32:
		for i := range t.X {
			t.X[i] = int32(binary.LittleEndian.Uint32(buf[4*i:]))
		}
	}
	// Quantized captures dequantize on decode.
	if r.QScale != 0 {
		switch dt {
		case tensor.U8:
			f := tensor.New(tensor.F32, t.Shape...)
			for i, q := range t.U {
				f.F[i] = float32(r.QScale * float64(int32(q)-r.QZero))
			}
			return f, nil
		case tensor.I8:
			f := tensor.New(tensor.F32, t.Shape...)
			for i, q := range t.I {
				f.F[i] = float32(r.QScale * float64(int32(q)-r.QZero))
			}
			return f, nil
		}
	}
	return t, nil
}

// Log is a sequence of telemetry records plus helpers for querying it.
type Log struct {
	Records []Record
}

// WriteJSONL serializes the log in the JSONL format, one record per line.
func (l *Log) WriteJSONL(w io.Writer) error { return l.Write(w, FormatJSONL) }

// WriteBinary serializes the log in the length-prefixed binary format.
func (l *Log) WriteBinary(w io.Writer) error { return l.Write(w, FormatBinary) }

// Write serializes the log in the given format.
func (l *Log) Write(w io.Writer, format LogFormat) error {
	enc, err := NewLogEncoder(w, format)
	if err != nil {
		return err
	}
	for i := range l.Records {
		if err := enc.EncodeRecord(&l.Records[i]); err != nil {
			return fmt.Errorf("core: encode record %d: %w", i, err)
		}
	}
	return enc.Flush()
}

// SizeBytes returns the serialized JSONL size of the log, the disk-footprint
// metric of the overhead tables. EncodedSize reports other formats.
func (l *Log) SizeBytes() (int, error) { return l.EncodedSize(FormatJSONL) }

// EncodedSize returns the serialized size of the log in the given format.
func (l *Log) EncodedSize(format LogFormat) (int, error) {
	var n countingWriter
	if err := l.Write(&n, format); err != nil {
		return 0, err
	}
	return int(n), nil
}

type countingWriter int

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}

// MemoryFootprintBytes estimates the buffer memory the log's records hold:
// the sum of all raw payloads plus fixed per-record overhead.
func (l *Log) MemoryFootprintBytes() int {
	n := 0
	for i := range l.Records {
		n += len(l.Records[i].Payload) + len(l.Records[i].Key) + 64
	}
	return n
}

// MergeByFrame merges shard logs into one log ordered by frame index, with
// sequence numbers renumbered globally — the utility for hand-rolled shard
// workflows (e.g. logs gathered from separate devices). Each frame must have
// been processed by exactly one shard, and each shard must have processed
// its frames in increasing order; the result then reproduces the record
// order a sequential run would have logged. runner.ReplayBatched applies the
// same contract incrementally in its streaming collector; a runner test pins
// the two to identical output.
func MergeByFrame(shards ...*Log) *Log {
	total := 0
	for _, s := range shards {
		total += len(s.Records)
	}
	merged := &Log{Records: make([]Record, 0, total)}
	for _, s := range shards {
		merged.Records = append(merged.Records, s.Records...)
	}
	sort.SliceStable(merged.Records, func(i, j int) bool {
		return merged.Records[i].Frame < merged.Records[j].Frame
	})
	for i := range merged.Records {
		merged.Records[i].Seq = i
	}
	return merged
}

// ByKey returns all records with the given key, in order.
func (l *Log) ByKey(key string) []Record {
	var out []Record
	for _, r := range l.Records {
		if r.Key == key {
			out = append(out, r)
		}
	}
	return out
}

// ByFrame returns all records of one frame.
func (l *Log) ByFrame(frame int) []Record {
	var out []Record
	for _, r := range l.Records {
		if r.Frame == frame {
			out = append(out, r)
		}
	}
	return out
}

// Frames returns the number of distinct frames (max frame + 1).
func (l *Log) Frames() int {
	max := -1
	for _, r := range l.Records {
		if r.Frame > max {
			max = r.Frame
		}
	}
	return max + 1
}

// FirstTensor decodes the first full-tensor record with the given key in
// the given frame.
func (l *Log) FirstTensor(frame int, key string) (*tensor.Tensor, error) {
	for _, r := range l.Records {
		if r.Frame == frame && r.Key == key && r.Kind == KindTensor {
			return r.DecodeTensor()
		}
	}
	return nil, fmt.Errorf("core: frame %d has no tensor record %q", frame, key)
}

// MetricValues returns the values of all metric records with the key.
func (l *Log) MetricValues(key string) []float64 {
	var out []float64
	for _, r := range l.Records {
		if r.Key == key && (r.Kind == KindMetric || r.Kind == KindSensor) {
			out = append(out, r.Value)
		}
	}
	return out
}
