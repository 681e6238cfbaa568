package core

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"
)

// This file is the one JSONL record encoder. JSONLEncoder.EncodeRecord,
// JSONLSink.PreEncodeFrame and Record.MarshalJSON all go through it. It
// appends straight into the caller's buffer — no reflection, no intermediate
// base64 string, no second pass over the result — and its output is, byte
// for byte, json.Marshal(recordWire{...}) followed by a newline: the
// recordWire field order and omitempty cases, encoding/json's float rule and
// its string escaping with HTML escaping on. DESIGN.md §2 lists the rules;
// TestRecordJSONLMatchesEncodingJSON and FuzzRecordJSONL hold them against
// encoding/json itself, testdata/golden.jsonl against history.

// jsonlSeqOpen opens every record line; the sequence number follows it.
const jsonlSeqOpen = `{"seq":`

// appendRecordJSONL appends r's JSONL line, newline included, to dst. On
// error (a non-finite float, which JSON cannot spell) dst is returned at its
// original length: nothing of a failed record is ever staged.
func appendRecordJSONL(dst []byte, r *Record) ([]byte, error) {
	n := len(dst)
	dst = strconv.AppendInt(append(dst, jsonlSeqOpen...), int64(r.Seq), 10)
	dst, err := appendRecordTail(dst, r)
	if err != nil {
		return dst[:n], err
	}
	return dst, nil
}

// appendRecordTail appends everything of r's line after the `{"seq":<n>`
// group — from `,"frame":` through the closing brace and newline. The split
// is what lets PreEncodeFrame marshal a record before its sequence number is
// known. On error dst is returned unchanged.
func appendRecordTail(dst []byte, r *Record) ([]byte, error) {
	if err := r.checkFinite(); err != nil {
		return dst, err
	}
	dst = strconv.AppendInt(append(dst, `,"frame":`...), int64(r.Frame), 10)
	dst = appendJSONString(append(dst, `,"key":`...), r.Key)
	dst = appendJSONString(append(dst, `,"kind":`...), string(r.Kind))
	if r.LayerIndex != 0 {
		dst = strconv.AppendInt(append(dst, `,"layer_index":`...), int64(r.LayerIndex), 10)
	}
	if r.LayerName != "" {
		dst = appendJSONString(append(dst, `,"layer_name":`...), r.LayerName)
	}
	if r.OpType != "" {
		dst = appendJSONString(append(dst, `,"op_type":`...), r.OpType)
	}
	if len(r.Shape) > 0 {
		dst = append(dst, `,"shape":`...)
		for i, d := range r.Shape {
			sep := byte(',')
			if i == 0 {
				sep = '['
			}
			dst = strconv.AppendInt(append(dst, sep), int64(d), 10)
		}
		dst = append(dst, ']')
	}
	if r.DType != "" {
		dst = appendJSONString(append(dst, `,"dtype":`...), r.DType)
	}
	if len(r.Payload) > 0 {
		// The base64 alphabet never needs escaping, so the payload goes
		// into the line in one pass.
		dst = appendBase64(append(dst, `,"data":"`...), r.Payload)
		dst = append(dst, '"')
	}
	if s := r.Stats; s != nil {
		dst = appendJSONFloat(append(dst, `,"stats":{"min":`...), s.Min)
		dst = appendJSONFloat(append(dst, `,"max":`...), s.Max)
		dst = appendJSONFloat(append(dst, `,"mean":`...), s.Mean)
		dst = appendJSONFloat(append(dst, `,"rms":`...), s.RMS)
		dst = strconv.AppendInt(append(dst, `,"n":`...), int64(s.N), 10)
		dst = append(dst, '}')
	}
	// The omitempty floats compare against zero by value, so -0.0 is
	// omitted like +0.0 (inside stats, which has no omitempty, it is "-0").
	if r.QScale != 0 {
		dst = appendJSONFloat(append(dst, `,"qscale":`...), r.QScale)
	}
	if r.QZero != 0 {
		dst = strconv.AppendInt(append(dst, `,"qzero":`...), int64(r.QZero), 10)
	}
	if r.Value != 0 {
		dst = appendJSONFloat(append(dst, `,"value":`...), r.Value)
	}
	if r.Unit != "" {
		dst = appendJSONString(append(dst, `,"unit":`...), r.Unit)
	}
	return append(dst, '}', '\n'), nil
}

// base64Pairs maps a 12-bit value to its two base64 characters, the first in
// the low byte: half the lookups of a per-character table, and 8 KiB stays in
// L1 next to the payload streaming through.
var base64Pairs = func() (t [4096]uint16) {
	const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
	for v := range t {
		t[v] = uint16(alphabet[v>>6]) | uint16(alphabet[v&63])<<8
	}
	return t
}()

// appendBase64 appends the standard padded base64 of src — the bytes
// base64.StdEncoding.AppendEncode appends — eight characters at a time: one
// big-endian 64-bit load covers six input bytes, four pair lookups build one
// 64-bit store. The stdlib encodes the tail the load cannot cover.
func appendBase64(dst, src []byte) []byte {
	n := base64.StdEncoding.EncodedLen(len(src))
	dst = slices.Grow(dst, n)
	out := dst[len(dst) : len(dst)+n]
	for len(src) >= 8 {
		v := binary.BigEndian.Uint64(src)
		binary.LittleEndian.PutUint64(out, uint64(base64Pairs[v>>52])|
			uint64(base64Pairs[v>>40&0xFFF])<<16|
			uint64(base64Pairs[v>>28&0xFFF])<<32|
			uint64(base64Pairs[v>>16&0xFFF])<<48)
		src, out = src[6:], out[8:]
	}
	base64.StdEncoding.Encode(out, src)
	return dst[:len(dst)+n]
}

// checkFinite reports the first float field, in line order, holding a value
// JSON has no spelling for. The binary format stores such records as they
// are; the JSONL format refuses them by record and field.
func (r *Record) checkFinite() error {
	bad := func(field string, f float64) error {
		return fmt.Errorf("core: record %q field %s: unsupported value %s",
			r.Key, field, strconv.FormatFloat(f, 'g', -1, 64))
	}
	finite := func(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }
	if s := r.Stats; s != nil {
		switch {
		case !finite(s.Min):
			return bad("stats.min", s.Min)
		case !finite(s.Max):
			return bad("stats.max", s.Max)
		case !finite(s.Mean):
			return bad("stats.mean", s.Mean)
		case !finite(s.RMS):
			return bad("stats.rms", s.RMS)
		}
	}
	if !finite(r.QScale) {
		return bad("qscale", r.QScale)
	}
	if !finite(r.Value) {
		return bad("value", r.Value)
	}
	return nil
}

// appendJSONFloat appends a finite f the way encoding/json does: the shortest
// decimal that round-trips, in 'f' form except below 1e-6 or from 1e21,
// where it is 'e' form with a one-digit negative exponent unpadded (e-09 →
// e-9).
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal with encoding/json's
// escaping, HTML escaping included: `"` and `\` take a backslash; \b \f \n
// \r \t their short forms; every other control byte and `<`, `>`, `&` the
// \u00xx form; U+2028 and U+2029 are escaped; each byte of invalid UTF-8
// becomes the six characters `\ufffd`.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}
