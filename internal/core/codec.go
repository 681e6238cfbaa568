package core

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

	"mlexray/internal/tensor"
)

// LogFormat selects a telemetry log encoding.
type LogFormat int

const (
	// FormatJSONL is the human-readable format: one JSON object per line,
	// tensor payloads base64-encoded. It is byte-stable — the golden-fixture
	// test pins it to the pre-codec-redesign output.
	FormatJSONL LogFormat = iota
	// FormatBinary is the length-prefixed binary format: a magic+version
	// header followed by varint-framed records whose tensor payloads are raw
	// little-endian bytes (no base64, no JSON). It is the low-overhead
	// streaming format for full-tensor capture.
	FormatBinary
)

// String returns the CLI flag spelling of the format.
func (f LogFormat) String() string {
	switch f {
	case FormatJSONL:
		return "jsonl"
	case FormatBinary:
		return "binary"
	default:
		return fmt.Sprintf("format(%d)", int(f))
	}
}

// ParseLogFormat is the inverse of LogFormat.String, for -log-format flags.
func ParseLogFormat(s string) (LogFormat, error) {
	switch s {
	case "jsonl":
		return FormatJSONL, nil
	case "binary":
		return FormatBinary, nil
	}
	return FormatJSONL, fmt.Errorf("core: unknown log format %q (want jsonl or binary)", s)
}

// LogEncoder is the writer side of a log codec: it serializes telemetry
// records one at a time onto a stream. Implementations buffer; call Flush
// after the last record (closing the underlying writer is the caller's job).
type LogEncoder interface {
	EncodeRecord(r *Record) error
	Flush() error
	// Reset discards any buffered output and starts a fresh log stream on
	// w, so one encoder serves a sequence of standalone streams (an upload
	// sink's chunks) without reallocating its buffers.
	Reset(w io.Writer)
}

// LogDecoder is the reader side of a log codec: Next returns records in
// stream order and io.EOF at the end of the log.
type LogDecoder interface {
	Next() (Record, error)
}

// NewLogEncoder returns the encoder for the given format.
func NewLogEncoder(w io.Writer, format LogFormat) (LogEncoder, error) {
	switch format {
	case FormatJSONL:
		return NewJSONLEncoder(w), nil
	case FormatBinary:
		return NewBinaryEncoder(w), nil
	}
	return nil, fmt.Errorf("core: unknown log format %v", format)
}

// ---- JSONL codec ----

// JSONLEncoder writes the JSONL log format, one record per line, through the
// appender in jsonl.go. Lines are staged in one reused buffer and handed to
// the writer whole, so a warmed encoder allocates nothing per record.
type JSONLEncoder struct {
	w   io.Writer
	buf []byte
	err error // first write error; sticky, like bufio.Writer's
}

// jsonlSpillBytes is the staged size from which the encoder writes through:
// small records batch up to it, a full-tensor record goes out on its own.
const jsonlSpillBytes = 4096

// NewJSONLEncoder wraps w in a JSONL log encoder.
func NewJSONLEncoder(w io.Writer) *JSONLEncoder { return &JSONLEncoder{w: w} }

// EncodeRecord appends one record line. A record the format cannot express
// (a non-finite float) is an error naming record and field, and leaves no
// part of its line behind.
func (e *JSONLEncoder) EncodeRecord(r *Record) error {
	var err error
	if e.buf, err = appendRecordJSONL(e.buf, r); err != nil {
		return err
	}
	return e.spill()
}

// encodePreMarshaled appends a record line whose tail — everything after the
// leading `{"seq":<n>` group, including the trailing newline — was marshaled
// elsewhere (the parallel pre-encode stage of the replay engine). The bytes
// written are identical to EncodeRecord over the same record with Seq = seq.
func (e *JSONLEncoder) encodePreMarshaled(seq int, tail []byte) error {
	e.buf = strconv.AppendInt(append(e.buf, jsonlSeqOpen...), int64(seq), 10)
	e.buf = append(e.buf, tail...)
	return e.spill()
}

// spill writes the staged lines through once they reach jsonlSpillBytes.
func (e *JSONLEncoder) spill() error {
	if len(e.buf) >= jsonlSpillBytes {
		return e.Flush()
	}
	return e.err
}

// Flush drains staged lines to the underlying writer.
func (e *JSONLEncoder) Flush() error {
	if e.err == nil && len(e.buf) > 0 {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
	return e.err
}

// Reset implements LogEncoder.
func (e *JSONLEncoder) Reset(w io.Writer) { e.w, e.buf, e.err = w, e.buf[:0], nil }

// JSONLDecoder reads the JSONL log format.
type JSONLDecoder struct {
	sc   *bufio.Scanner
	line int
}

// NewJSONLDecoder wraps r in a JSONL log decoder.
func NewJSONLDecoder(r io.Reader) *JSONLDecoder {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<26)
	return &JSONLDecoder{sc: sc}
}

// Next returns the next record, or io.EOF at the end of the stream.
func (d *JSONLDecoder) Next() (Record, error) {
	for d.sc.Scan() {
		d.line++
		if len(d.sc.Bytes()) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(d.sc.Bytes(), &rec); err != nil {
			return Record{}, fmt.Errorf("core: log line %d: %w", d.line, err)
		}
		return rec, nil
	}
	if err := d.sc.Err(); err != nil {
		return Record{}, fmt.Errorf("core: read log: %w", err)
	}
	return Record{}, io.EOF
}

// ---- binary codec ----

// binaryMagic opens every binary log; the trailing byte is the format
// version. OpenLog sniffs it to auto-detect the format.
var binaryMagic = []byte{'M', 'L', 'X', 'B'}

const binaryVersion = 1

// maxBinaryRecord caps one record's body so a corrupt length prefix cannot
// drive an arbitrarily large allocation.
const maxBinaryRecord = 1 << 30

// BinaryEncoder writes the length-prefixed binary log format: the
// magic+version header, then per record a uvarint body length and a body
// whose tensor payload is the raw little-endian bytes — no base64 and no
// per-byte JSON escaping on the hot path.
type BinaryEncoder struct {
	bw      *bufio.Writer
	scratch []byte
	started bool
}

// NewBinaryEncoder wraps w in a binary log encoder.
func NewBinaryEncoder(w io.Writer) *BinaryEncoder {
	return &BinaryEncoder{bw: bufio.NewWriter(w)}
}

func (e *BinaryEncoder) header() error {
	if e.started {
		return nil
	}
	e.started = true
	if _, err := e.bw.Write(binaryMagic); err != nil {
		return err
	}
	return e.bw.WriteByte(binaryVersion)
}

// EncodeRecord appends one length-prefixed record.
func (e *BinaryEncoder) EncodeRecord(r *Record) error {
	if err := e.header(); err != nil {
		return err
	}
	e.scratch = appendRecordBinary(e.scratch[:0], r)
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(e.scratch)))
	if _, err := e.bw.Write(lenBuf[:n]); err != nil {
		return err
	}
	_, err := e.bw.Write(e.scratch)
	return err
}

// Flush writes the header if no record has (an empty binary log is just the
// header, still auto-detectable) and drains buffered output.
func (e *BinaryEncoder) Flush() error {
	if err := e.header(); err != nil {
		return err
	}
	return e.bw.Flush()
}

// Reset implements LogEncoder: the next record (or Flush) writes a new
// header.
func (e *BinaryEncoder) Reset(w io.Writer) {
	e.bw.Reset(w)
	e.started = false
}

// appendRecordBinary serializes one record body. Field order is fixed;
// readRecordBinary mirrors it exactly.
func appendRecordBinary(buf []byte, r *Record) []byte {
	buf = binary.AppendUvarint(buf, uint64(r.Seq))
	buf = binary.AppendUvarint(buf, uint64(r.Frame))
	buf = appendBinString(buf, r.Key)
	buf = appendBinString(buf, string(r.Kind))
	buf = binary.AppendVarint(buf, int64(r.LayerIndex))
	buf = appendBinString(buf, r.LayerName)
	buf = appendBinString(buf, r.OpType)
	buf = binary.AppendUvarint(buf, uint64(len(r.Shape)))
	for _, d := range r.Shape {
		buf = binary.AppendVarint(buf, int64(d))
	}
	buf = appendBinString(buf, r.DType)
	buf = binary.AppendUvarint(buf, uint64(len(r.Payload)))
	buf = append(buf, r.Payload...)
	if r.Stats != nil {
		buf = append(buf, 1)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Stats.Min))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Stats.Max))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Stats.Mean))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Stats.RMS))
		buf = binary.AppendVarint(buf, int64(r.Stats.N))
	} else {
		buf = append(buf, 0)
	}
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.QScale))
	buf = binary.AppendVarint(buf, int64(r.QZero))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Value))
	buf = appendBinString(buf, r.Unit)
	return buf
}

func appendBinString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// BinaryDecoder reads the length-prefixed binary log format, from a stream
// (NewBinaryDecoder) or from a buffer that already holds the whole log
// (OpenLogBytes). Either way a record's body is sliced out of the bytes it
// arrived in, never copied: a decoded Payload aliases the decoder's source.
type BinaryDecoder struct {
	src     slabReader
	started bool
}

// NewBinaryDecoder wraps r in a binary log decoder. The stream is read into
// slabs that are never reused, and each record's Payload is a sub-slice of
// the slab it arrived in: it stays valid for as long as it is referenced,
// whatever the decoder reads next — and keeping one small record keeps its
// whole slab alive, so copy a payload that must outlive its log by much.
func NewBinaryDecoder(r io.Reader) *BinaryDecoder {
	return &BinaryDecoder{src: slabReader{r: r, slab: binarySlab}}
}

// binarySlab is how much of a stream one slab holds. A record longer than
// that gets a buffer of its own (slabReader.grow).
const binarySlab = 1 << 20

// slabReader is the decoder's byte source: the unread window buf[pos:end] of
// the current slab — or of the buffer holding the whole log, whose err is
// io.EOF from the start.
type slabReader struct {
	r        io.Reader
	slab     int // binarySlab; tests shrink it to put boundaries everywhere
	buf      []byte
	pos, end int
	err      error // what r returned last; delivered once the window runs dry
}

// ReadByte implements io.ByteReader for binary.ReadUvarint.
func (s *slabReader) ReadByte() (byte, error) {
	b, err := s.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

// take is io.ReadFull without the copy: the next n bytes, in place, failing
// as ReadFull does when the source ends first.
func (s *slabReader) take(n int) ([]byte, error) {
	for idle := 0; s.end-s.pos < n; {
		if s.err != nil {
			if s.err == io.EOF && s.end > s.pos {
				return nil, io.ErrUnexpectedEOF
			}
			return nil, s.err
		}
		if s.end == len(s.buf) {
			s.grow(n)
		}
		var k int
		k, s.err = s.r.Read(s.buf[s.end:])
		s.end += k
		if k == 0 && s.err == nil {
			if idle++; idle == 100 {
				s.err = io.ErrNoProgress
			}
		}
	}
	b := s.buf[s.pos : s.pos+n : s.pos+n]
	s.pos += n
	return b, nil
}

// grow moves the window to the front of a fresh buffer — never the old one
// again, decoded records alias it. The buffer is a slab, or for a record
// longer than a slab twice what has arrived of it so far: a length prefix
// reserves nothing the stream does not go on to fill, so a lying one costs
// at most twice the bytes received plus one slab.
func (s *slabReader) grow(n int) {
	have := s.end - s.pos
	fresh := make([]byte, max(s.slab, min(n, 2*have)))
	copy(fresh, s.buf[s.pos:s.end])
	s.buf, s.pos, s.end = fresh, 0, have
}

func (d *BinaryDecoder) checkHeader() error {
	if d.started {
		return nil
	}
	d.started = true
	head, err := d.src.take(len(binaryMagic) + 1)
	if err != nil {
		return fmt.Errorf("core: binary log header: %w", err)
	}
	if !bytes.Equal(head[:len(binaryMagic)], binaryMagic) {
		return fmt.Errorf("core: not a binary telemetry log (bad magic %q)", head[:len(binaryMagic)])
	}
	if v := head[len(binaryMagic)]; v != binaryVersion {
		return fmt.Errorf("core: binary log version %d not supported (want %d)", v, binaryVersion)
	}
	return nil
}

// Next returns the next record, or io.EOF at the end of the stream.
func (d *BinaryDecoder) Next() (Record, error) {
	if err := d.checkHeader(); err != nil {
		return Record{}, err
	}
	n, err := binary.ReadUvarint(&d.src)
	if err == io.EOF {
		return Record{}, io.EOF
	}
	if err != nil {
		return Record{}, fmt.Errorf("core: binary log record length: %w", err)
	}
	if n > maxBinaryRecord {
		return Record{}, fmt.Errorf("core: binary log record of %d bytes exceeds the %d limit", n, maxBinaryRecord)
	}
	body, err := d.src.take(int(n))
	if err != nil {
		return Record{}, fmt.Errorf("core: binary log record body: %w", err)
	}
	return readRecordBinary(body)
}

// binCursor walks a record body with bounds checking.
type binCursor struct {
	buf []byte
	off int
}

func (c *binCursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.buf[c.off:])
	if n <= 0 {
		return 0, fmt.Errorf("core: binary record truncated at offset %d", c.off)
	}
	c.off += n
	return v, nil
}

func (c *binCursor) varint() (int64, error) {
	v, n := binary.Varint(c.buf[c.off:])
	if n <= 0 {
		return 0, fmt.Errorf("core: binary record truncated at offset %d", c.off)
	}
	c.off += n
	return v, nil
}

func (c *binCursor) bytes(n uint64) ([]byte, error) {
	if uint64(len(c.buf)-c.off) < n {
		return nil, fmt.Errorf("core: binary record truncated at offset %d", c.off)
	}
	b := c.buf[c.off : c.off+int(n)]
	c.off += int(n)
	return b, nil
}

func (c *binCursor) str() (string, error) {
	n, err := c.uvarint()
	if err != nil {
		return "", err
	}
	b, err := c.bytes(n)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func (c *binCursor) f64() (float64, error) {
	b, err := c.bytes(8)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
}

// readRecordBinary mirrors appendRecordBinary. The record's Payload is a
// sub-slice of body; every other field is a copy.
func readRecordBinary(body []byte) (Record, error) {
	c := &binCursor{buf: body}
	var r Record
	var err error
	fail := func(field string, e error) (Record, error) {
		return Record{}, fmt.Errorf("core: binary record field %s: %w", field, e)
	}
	var u uint64
	var v int64
	if u, err = c.uvarint(); err != nil {
		return fail("seq", err)
	}
	r.Seq = int(u)
	if u, err = c.uvarint(); err != nil {
		return fail("frame", err)
	}
	r.Frame = int(u)
	if r.Key, err = c.str(); err != nil {
		return fail("key", err)
	}
	var kind string
	if kind, err = c.str(); err != nil {
		return fail("kind", err)
	}
	r.Kind = RecordKind(kind)
	if v, err = c.varint(); err != nil {
		return fail("layer_index", err)
	}
	r.LayerIndex = int(v)
	if r.LayerName, err = c.str(); err != nil {
		return fail("layer_name", err)
	}
	if r.OpType, err = c.str(); err != nil {
		return fail("op_type", err)
	}
	if u, err = c.uvarint(); err != nil {
		return fail("shape", err)
	}
	if u > 0 {
		if u > uint64(len(body)) { // a rank can never exceed the body size
			return fail("shape", fmt.Errorf("rank %d implausible", u))
		}
		r.Shape = make([]int, u)
		for i := range r.Shape {
			if v, err = c.varint(); err != nil {
				return fail("shape", err)
			}
			r.Shape[i] = int(v)
		}
	}
	if r.DType, err = c.str(); err != nil {
		return fail("dtype", err)
	}
	if u, err = c.uvarint(); err != nil {
		return fail("payload", err)
	}
	if u > 0 {
		b, err := c.bytes(u)
		if err != nil {
			return fail("payload", err)
		}
		r.Payload = b
	}
	flag, err := c.bytes(1)
	if err != nil {
		return fail("stats", err)
	}
	if flag[0] != 0 {
		var s tensor.Stats
		if s.Min, err = c.f64(); err != nil {
			return fail("stats", err)
		}
		if s.Max, err = c.f64(); err != nil {
			return fail("stats", err)
		}
		if s.Mean, err = c.f64(); err != nil {
			return fail("stats", err)
		}
		if s.RMS, err = c.f64(); err != nil {
			return fail("stats", err)
		}
		if v, err = c.varint(); err != nil {
			return fail("stats", err)
		}
		s.N = int(v)
		r.Stats = &s
	}
	if r.QScale, err = c.f64(); err != nil {
		return fail("qscale", err)
	}
	if v, err = c.varint(); err != nil {
		return fail("qzero", err)
	}
	r.QZero = int32(v)
	if r.Value, err = c.f64(); err != nil {
		return fail("value", err)
	}
	if r.Unit, err = c.str(); err != nil {
		return fail("unit", err)
	}
	if c.off != len(body) {
		return Record{}, fmt.Errorf("core: binary record has %d trailing bytes", len(body)-c.off)
	}
	return r, nil
}

// ---- unified open / read ----

// gzipMagic opens every gzip stream (RFC 1952); OpenLog sniffs it so
// compressed logs — .jsonl.gz / .mlxb.gz files, gzip upload bodies — read
// transparently.
var gzipMagic = []byte{0x1f, 0x8b}

// OpenLog wraps r in the decoder matching its format, auto-detected from the
// leading bytes: the MLXB magic selects the binary codec, the gzip magic
// transparently decompresses and re-detects, anything else is read as JSONL.
// The reported format is the format of the (decompressed) log itself. A
// binary log's payloads alias the decoder's slabs (see NewBinaryDecoder);
// JSONL payloads are allocations of their own.
func OpenLog(r io.Reader) (LogDecoder, LogFormat, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	if head, err := br.Peek(len(gzipMagic)); err == nil && bytes.Equal(head, gzipMagic) {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, FormatJSONL, fmt.Errorf("core: open gzip log: %w", err)
		}
		return OpenLog(zr)
	}
	head, err := br.Peek(len(binaryMagic))
	if err != nil && err != io.EOF {
		return nil, FormatJSONL, fmt.Errorf("core: detect log format: %w", err)
	}
	if bytes.Equal(head, binaryMagic) {
		return NewBinaryDecoder(br), FormatBinary, nil
	}
	return NewJSONLDecoder(br), FormatJSONL, nil
}

// OpenLogBytes is OpenLog over a log already in memory. A plain binary log
// decodes in place: each record's Payload aliases buf, so it is valid only
// while buf is — a caller that reuses buf must copy what it keeps. Gzip and
// JSONL logs go through OpenLog and alias nothing of buf.
func OpenLogBytes(buf []byte) (LogDecoder, LogFormat, error) {
	if bytes.HasPrefix(buf, binaryMagic) {
		return &BinaryDecoder{src: slabReader{buf: buf, end: len(buf), err: io.EOF}}, FormatBinary, nil
	}
	return OpenLog(bytes.NewReader(buf))
}

// ReadLog reads a whole telemetry log in either format, auto-detected. The
// payloads of a binary log are slices of the slabs it was read into — about
// one copy of the log in memory, shared by its records: keeping a single
// record of a log otherwise dropped keeps that record's whole slab.
func ReadLog(r io.Reader) (*Log, error) {
	l, _, err := ReadLogWithFormat(r)
	return l, err
}

// ReadLogWithFormat reads a whole telemetry log in either format and also
// reports which format it detected.
func ReadLogWithFormat(r io.Reader) (*Log, LogFormat, error) {
	dec, format, err := OpenLog(r)
	if err != nil {
		return nil, format, err
	}
	l, err := readAll(dec)
	return l, format, err
}

func readAll(dec LogDecoder) (*Log, error) {
	var l Log
	for {
		rec, err := dec.Next()
		if err == io.EOF {
			return &l, nil
		}
		if err != nil {
			return nil, err
		}
		l.Records = append(l.Records, rec)
	}
}
