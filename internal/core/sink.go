package core

import (
	"encoding/base64"
	"fmt"
	"io"
)

// Sink consumes merged telemetry frames in order: the runner's collector,
// the Monitor's spill mode and hand-rolled shard workflows all write through
// it. Frames must arrive in increasing frame order with sequence numbers
// already assigned; Flush is called once after the last frame (closing any
// underlying file is the caller's job).
//
// A frame is lent to the sink, not given to it: nothing of recs — the slice,
// a record, a Payload, a Shape, a Stats — may be held past the return of
// WriteFrame. Where nothing else keeps the records (a replay with DiscardLog,
// a Monitor built WithSink) they and their payloads live in recycled buffers
// that are overwritten as soon as the frame's range is flushed; a sink that
// needs something later copies it (StreamValidator clones the payloads it
// retains). ScribbleRecycledCaptures makes tests fail on a violation.
//
// Sinks are not safe for concurrent use; the parallel replay engine
// serializes frames through its in-order collector before writing, which is
// also what guarantees the on-disk record order matches a sequential run.
type Sink interface {
	WriteFrame(frame int, recs []Record) error
	Flush() error
}

// LogSink is the interface of the built-in streaming sinks: a Sink that
// writes one of the log formats and reports write statistics.
type LogSink interface {
	Sink
	// Records returns the number of records written so far.
	Records() int
	// Bytes returns the serialized bytes written so far (pre-buffering
	// count is exact after Flush).
	Bytes() int
	// Format returns the log format the sink writes.
	Format() LogFormat
}

// NewLogSink wraps w in a streaming sink for the given format — the
// constructor behind the CLIs' -log-format flag.
func NewLogSink(w io.Writer, format LogFormat) (LogSink, error) {
	switch format {
	case FormatJSONL:
		return NewJSONLSink(w), nil
	case FormatBinary:
		// The binary format needs nothing beyond the shared machinery (raw
		// little-endian payloads, no base64, no pre-encode stage).
		s := &streamSink{}
		s.init(w, FormatBinary)
		return s, nil
	}
	return nil, fmt.Errorf("core: unknown log format %v", format)
}

// streamSink is the shared machinery of the built-in sinks: a codec encoder
// plus record/byte counters. Records stream through without being retained,
// so replays over arbitrarily long datasets keep constant memory; a log
// written through a sink reads back (ReadLog) identically to one accumulated
// in memory and written at the end.
type streamSink struct {
	format  LogFormat
	enc     LogEncoder
	records int
	bytes   countingWriter
}

func (s *streamSink) init(w io.Writer, format LogFormat) {
	s.format = format
	var err error
	s.enc, err = NewLogEncoder(io.MultiWriter(w, &s.bytes), format)
	if err != nil {
		// Both built-in constructors pass a valid format.
		panic(err)
	}
}

// WriteFrame appends one frame's records to the stream.
func (s *streamSink) WriteFrame(frame int, recs []Record) error {
	for i := range recs {
		if err := s.enc.EncodeRecord(&recs[i]); err != nil {
			return fmt.Errorf("core: sink frame %d record %d: %w", frame, i, err)
		}
	}
	s.records += len(recs)
	return nil
}

// Flush drains buffered output to the underlying writer.
func (s *streamSink) Flush() error { return s.enc.Flush() }

// Records returns the number of records written so far.
func (s *streamSink) Records() int { return s.records }

// Bytes returns the serialized bytes written so far (pre-buffering count is
// exact after Flush).
func (s *streamSink) Bytes() int { return int(s.bytes) }

// Format returns the log format the sink writes.
func (s *streamSink) Format() LogFormat { return s.format }

// PreEncodedFrame holds one frame's records marshaled ahead of the in-order
// collector: serialized lines missing their sequence-number prefix, which
// only the collector knows and prepends at write time. Produced by
// FramePreEncoder.PreEncodeFrame on worker goroutines, consumed by
// WritePreEncoded on the collector.
type PreEncodedFrame struct {
	buf  []byte
	offs []int // start offset of each record's line tail within buf
}

// Records returns the number of records the frame carries.
func (pf PreEncodedFrame) Records() int { return len(pf.offs) }

// FramePreEncoder is an optional Sink capability: sinks that can split
// record encoding into a parallel-safe pre-marshal stage and a cheap
// in-order patch-and-append stage. The replay engine uses it to move the
// expensive part of full-capture JSONL serialization (base64 expansion,
// JSON escaping) from its serial collector onto the worker goroutines.
//
// The contract: for any records recs and sequence base seq,
// WritePreEncoded(frame, PreEncodeFrame(recs), seq) must write exactly the
// bytes WriteFrame(frame, recs) would after setting recs[i].Seq = seq+i.
type FramePreEncoder interface {
	Sink
	// PreEncodeFrame marshals one frame's records, ignoring their Seq
	// fields. Safe for concurrent use by multiple goroutines.
	PreEncodeFrame(recs []Record) (PreEncodedFrame, error)
	// WritePreEncoded appends a pre-encoded frame, patching record sequence
	// numbers to seq, seq+1, ... Not safe for concurrent use (same as
	// WriteFrame).
	WritePreEncoded(frame int, pf PreEncodedFrame, seq int) error
}

// JSONLSink streams telemetry records to a writer in the JSONL log format —
// the human-readable Sink implementation. It also implements
// FramePreEncoder, so parallel replays marshal record lines on their worker
// goroutines and the collector only patches sequence numbers.
type JSONLSink struct {
	streamSink
	jsonl *JSONLEncoder
}

// NewJSONLSink wraps w in a streaming JSONL log writer.
func NewJSONLSink(w io.Writer) *JSONLSink {
	s := &JSONLSink{}
	s.init(w, FormatJSONL)
	s.jsonl = s.enc.(*JSONLEncoder)
	return s
}

// PreEncodeFrame marshals recs into JSONL line tails — each record's line
// after its `{"seq":<n>` group, which the collector supplies. Safe for
// concurrent use: each call stages into its own buffer, sized up front so
// the frame is marshaled in a single pass without regrowth.
func (s *JSONLSink) PreEncodeFrame(recs []Record) (PreEncodedFrame, error) {
	size := 0
	for i := range recs {
		r := &recs[i]
		size += 384 + len(r.Key) + len(r.LayerName) + len(r.OpType) + base64.StdEncoding.EncodedLen(len(r.Payload))
	}
	pf := PreEncodedFrame{buf: make([]byte, 0, size), offs: make([]int, len(recs))}
	for i := range recs {
		pf.offs[i] = len(pf.buf)
		var err error
		if pf.buf, err = appendRecordTail(pf.buf, &recs[i]); err != nil {
			return PreEncodedFrame{}, err
		}
	}
	return pf, nil
}

// WritePreEncoded appends a frame pre-marshaled by PreEncodeFrame, patching
// record sequence numbers to seq, seq+1, ... The bytes written are identical
// to WriteFrame over the same records with those sequence numbers.
func (s *JSONLSink) WritePreEncoded(frame int, pf PreEncodedFrame, seq int) error {
	for i, off := range pf.offs {
		end := len(pf.buf)
		if i+1 < len(pf.offs) {
			end = pf.offs[i+1]
		}
		if err := s.jsonl.encodePreMarshaled(seq+i, pf.buf[off:end]); err != nil {
			return fmt.Errorf("core: sink frame %d record %d: %w", frame, i, err)
		}
	}
	s.records += len(pf.offs)
	return nil
}
