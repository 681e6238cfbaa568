package ingest

// This file is the collector's durability layer: a per-session write-ahead
// segment log. Every accepted upload chunk is appended to the session's
// segment file — a small header (stream token, chunk sequence number,
// arrival time) plus the raw wire bytes exactly as received — and fsynced
// BEFORE the 200 ack, so an acknowledged chunk survives a collector crash.
// On startup the segments replay in order through the same ingestion path
// the HTTP handler uses, so the recovered per-device and fleet reports are
// byte-identical to an uninterrupted run: recovery is exact by
// construction, not by best effort.
//
// Segment file layout (all integers varint/uvarint unless noted):
//
//	header:  "MLXW" magic, version byte (2), device string (uvarint len + bytes)
//	entry:   entry index (uvarint, monotonic per session, never reused)
//	         stream string (uvarint len + bytes)
//	         chunk sequence number (varint; -1 = headerless upload)
//	         arrival time (varint, unix nanoseconds)
//	         body length (uvarint)
//	         crc32 (IEEE) of body (4 bytes little-endian)
//	         body (raw wire bytes: a standalone log chunk, plain or gzip)
//
// A session's log is a sequence of numbered segment files: segment 0 is
// <url.PathEscape(device)>.wal, later segments <escaped>#000001.wal,
// <escaped>#000002.wal, … ('#' never appears in PathEscape output, so the
// separator is unambiguous). The highest-numbered segment is the active
// one; once an append pushes it past the configured size threshold the log
// rolls to a fresh segment, and closed segments are periodically compacted:
// merged into one file via write-temp → fsync → rename-over-the-newest →
// remove-the-rest, each step crash-safe. The per-entry index makes the
// compaction windows harmless — recovery orders a session's entries by
// index and replays each index exactly once, so a crash between the rename
// and the removals (when an entry briefly exists in two files) cannot
// double-apply a chunk.
//
// A crash can tear at most the entry being appended (each append is one
// write syscall followed by fsync); recovery detects the torn tail by
// length/CRC, truncates the file back to the last complete entry, and
// replays the intact prefix. The client never saw an ack for the torn
// chunk, so its retry re-delivers it to the recovered session, whose
// expected chunk sequence number picks up exactly where the log ends.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"mlexray/internal/httpx"
	"mlexray/internal/obs"
)

var walMagic = []byte{'M', 'L', 'X', 'W'}

const walVersion = 2

// walSuffix names session segment files: <url.PathEscape(device)>.wal.
const walSuffix = ".wal"

// walTmpSuffix marks an in-flight compaction output; never replayed.
const walTmpSuffix = ".wal.tmp"

// maxWALEntry caps one entry's body so a corrupt length prefix cannot drive
// an arbitrarily large allocation during recovery.
const maxWALEntry = 1 << 31

// defaultCompactAfter is how many closed segments accumulate before a
// rotation triggers compaction, when the server does not say otherwise.
const defaultCompactAfter = 4

// walConfig is the durability layer's tuning, shared by every session of one
// collector.
type walConfig struct {
	dir string
	// segmentBytes rolls the active segment to a new numbered one once its
	// committed size reaches this; <= 0 never rolls (one segment per session).
	segmentBytes int64
	// compactAfter merges a session's closed segments into one once at least
	// this many have accumulated; <= 0 never compacts.
	compactAfter int
	// appendHist/fsyncHist time each entry append (whole barrier) and its
	// fsync alone — the collector's WAL latency histograms. Nil (metrics
	// disabled) observes nothing.
	appendHist *obs.Histogram
	fsyncHist  *obs.Histogram
}

// walEntry is one logged chunk: the upload-generation metadata that makes
// retries idempotent, the arrival time (so a recovered session's status is
// identical to the uninterrupted one), and the raw wire bytes.
type walEntry struct {
	index  uint64 // monotonic per session; assigned by append
	stream string
	chunk  int // the upload's sequence number, -1 for headerless uploads
	when   time.Time
	body   []byte
	// sum is the CRC-32 (IEEE) of body — httpx.Checksum, the sum the upload
	// protocol carries, so the read stage's one pass over the bytes serves
	// both the wire check and the log.
	sum uint32
}

// sessionWAL is one session's open segment log. Appends happen under the
// session mutex (chunks of one device are already serialized), so the type
// itself is not concurrency-safe.
type sessionWAL struct {
	cfg       walConfig
	device    string
	f         *os.File
	path      string
	seq       int    // active segment number
	nextIndex uint64 // index the next appended entry gets
	committed int64  // offset after the last fully synced entry
	buf       []byte
	err       error // sticky: a failed truncate-back leaves the file unusable
}

// walPath maps a device ID to its first segment file. url.PathEscape is
// injective and never emits a path separator, so arbitrary device IDs are
// safe.
func walPath(dir, device string) string {
	return filepath.Join(dir, url.PathEscape(device)+walSuffix)
}

// segmentPath names the device's seq'th segment. Segment 0 keeps the plain
// pre-rotation name, so logs written before rotation existed replay as a
// single-segment session.
func segmentPath(dir, device string, seq int) string {
	if seq == 0 {
		return walPath(dir, device)
	}
	return filepath.Join(dir, fmt.Sprintf("%s#%06d%s", url.PathEscape(device), seq, walSuffix))
}

// parseSegmentName splits a segment file name into the escaped device and
// the segment number. '#' cannot appear in url.PathEscape output, so the
// last '#' — when present — is always the segment separator.
func parseSegmentName(name string) (escDevice string, seq int, ok bool) {
	base, found := strings.CutSuffix(name, walSuffix)
	if !found {
		return "", 0, false
	}
	i := strings.LastIndexByte(base, '#')
	if i < 0 {
		return base, 0, true
	}
	numPart := base[i+1:]
	if numPart == "" {
		return "", 0, false
	}
	n := 0
	for _, c := range numPart {
		if c < '0' || c > '9' {
			return "", 0, false
		}
		n = n*10 + int(c-'0')
		if n > 1<<30 {
			return "", 0, false
		}
	}
	return base[:i], n, true
}

// walSegmentFile is one on-disk segment of a session's log.
type walSegmentFile struct {
	path string
	esc  string // url.PathEscape(device), from the file name
	seq  int
	size int64
}

// listSegments lists the segment files under dir from directory metadata
// alone (names and sizes, never contents) — one device's, sorted by segment
// number, or with onlyEsc "" every device's. A missing dir holds none.
func listSegments(dir, onlyEsc string) ([]walSegmentFile, error) {
	names, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("ingest: wal dir: %w", err)
	}
	var segs []walSegmentFile
	for _, de := range names {
		esc, seq, ok := parseSegmentName(de.Name())
		if !ok || de.IsDir() || (onlyEsc != "" && esc != onlyEsc) {
			continue
		}
		info, err := de.Info()
		if err != nil {
			return nil, fmt.Errorf("ingest: wal segment %s: %w", de.Name(), err)
		}
		segs = append(segs, walSegmentFile{path: filepath.Join(dir, de.Name()), esc: esc, seq: seq, size: info.Size()})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	return segs, nil
}

// deviceSegments lists the device's segment files sorted by segment number.
func deviceSegments(dir, device string) ([]walSegmentFile, error) {
	return listSegments(dir, url.PathEscape(device))
}

// appendWALHeader serializes the segment file header.
func appendWALHeader(buf []byte, device string) []byte {
	buf = append(buf, walMagic...)
	buf = append(buf, walVersion)
	buf = binary.AppendUvarint(buf, uint64(len(device)))
	return append(buf, device...)
}

// createSessionWAL opens the device's log for appending. With no segments on
// disk it creates segment 0, writing and syncing the header (and the parent
// directory entry, so a freshly created segment survives a crash right after
// the first ack). With existing segments it reopens the highest-numbered one
// — truncating any torn tail first — and resumes the entry index after the
// highest index on disk, so indexes are never reused across restarts.
func createSessionWAL(cfg walConfig, device string) (*sessionWAL, error) {
	segs, err := deviceSegments(cfg.dir, device)
	if err != nil {
		return nil, err
	}
	w := &sessionWAL{cfg: cfg, device: device}
	if len(segs) > 0 {
		// Resume: scan from the newest segment down until entries are found —
		// a crash between rotation's create and the first append can leave
		// the newest segment holding a bare header.
		w.seq = segs[len(segs)-1].seq
		for i := len(segs) - 1; i >= 0; i-- {
			rs, _, err := readSegment(segs[i].path)
			if err != nil {
				return nil, err
			}
			if n := len(rs.entries); n > 0 {
				w.nextIndex = rs.entries[n-1].index + 1
				break
			}
		}
	}
	if w.f, w.committed, err = createSegmentFile(cfg.dir, device, w.seq); err != nil {
		return nil, err
	}
	w.path = segmentPath(cfg.dir, device, w.seq)
	return w, nil
}

// createSegmentFile creates (or reopens) one segment file for appending,
// writing and syncing the header when the file is empty.
func createSegmentFile(dir, device string, seq int) (*os.File, int64, error) {
	path := segmentPath(dir, device, seq)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("ingest: open wal segment: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("ingest: stat wal segment: %w", err)
	}
	committed := st.Size()
	if committed == 0 {
		hdr := appendWALHeader(nil, device)
		if _, err := f.Write(hdr); err != nil {
			f.Close()
			return nil, 0, fmt.Errorf("ingest: write wal header: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, 0, fmt.Errorf("ingest: sync wal header: %w", err)
		}
		if err := syncDir(dir); err != nil {
			f.Close()
			return nil, 0, err
		}
		committed = int64(len(hdr))
	}
	return f, committed, nil
}

// syncDir fsyncs a directory so newly created file entries are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("ingest: open wal dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("ingest: sync wal dir: %w", err)
	}
	return nil
}

// append logs one chunk and fsyncs — the write barrier in front of every
// ack. The entry is assembled into one buffer and written with a single
// syscall, so a crash tears at most the file's tail, never an earlier entry.
// On a failed write the file is truncated back to the last committed entry;
// if even that fails the WAL is marked broken (sticky error) so no later
// chunk can be acked against a corrupt log.
func (w *sessionWAL) append(e walEntry) error {
	if w.err != nil {
		return w.err
	}
	// Size-threshold roll: once the active segment has reached the limit the
	// entry opens a fresh one. A segment holding no entries yet never rolls
	// (a threshold below the header size must not spin off empty files). A
	// failed roll is not sticky — the old segment is still intact and the
	// entry is simply not acked; the client retries.
	if w.cfg.segmentBytes > 0 && w.committed >= w.cfg.segmentBytes &&
		w.committed > int64(len(appendWALHeader(nil, w.device))) {
		if err := w.roll(); err != nil {
			return err
		}
	}
	appendStart := time.Now()
	e.index = w.nextIndex
	buf := appendWALEntry(w.buf[:0], e)
	w.buf = buf
	if _, err := w.f.Write(buf); err != nil {
		if terr := w.f.Truncate(w.committed); terr != nil {
			w.err = fmt.Errorf("ingest: wal truncate after failed append: %v (append: %w)", terr, err)
			return w.err
		}
		return fmt.Errorf("ingest: wal append: %w", err)
	}
	fsyncStart := time.Now()
	if err := w.f.Sync(); err != nil {
		// The entry's durability is unknown; roll it back so the in-memory
		// state (which will not apply this chunk) and the log agree.
		if terr := w.f.Truncate(w.committed); terr != nil {
			w.err = fmt.Errorf("ingest: wal truncate after failed sync: %v (sync: %w)", terr, err)
			return w.err
		}
		return fmt.Errorf("ingest: wal sync: %w", err)
	}
	w.cfg.fsyncHist.ObserveSince(fsyncStart)
	w.cfg.appendHist.ObserveSince(appendStart)
	w.committed += int64(len(buf))
	w.nextIndex++
	return nil
}

// appendWALEntry serializes one entry — the exact bytes append writes and
// compaction copies.
func appendWALEntry(buf []byte, e walEntry) []byte {
	buf = binary.AppendUvarint(buf, e.index)
	buf = binary.AppendUvarint(buf, uint64(len(e.stream)))
	buf = append(buf, e.stream...)
	buf = binary.AppendVarint(buf, int64(e.chunk))
	buf = binary.AppendVarint(buf, e.when.UnixNano())
	buf = binary.AppendUvarint(buf, uint64(len(e.body)))
	buf = binary.LittleEndian.AppendUint32(buf, e.sum)
	return append(buf, e.body...)
}

// roll closes the active segment and opens the next-numbered one. The new
// segment's header is synced (file and directory) before the swap, so the
// log never points at a segment that could vanish in a crash. After a
// successful roll the closed segments are compacted when enough have piled
// up; compaction failure does not fail the roll — the closed segments are
// still individually valid, and the next roll retries.
func (w *sessionWAL) roll() error {
	f, committed, err := createSegmentFile(w.cfg.dir, w.device, w.seq+1)
	if err != nil {
		return fmt.Errorf("ingest: wal roll: %w", err)
	}
	w.f.Close()
	w.f, w.committed = f, committed
	w.seq++
	w.path = segmentPath(w.cfg.dir, w.device, w.seq)
	if w.cfg.compactAfter > 0 {
		// Best-effort: rotation succeeded regardless; a failed compaction
		// leaves individually valid closed segments and retries next roll.
		_ = compactClosedSegments(w.cfg.dir, w.device, w.seq, w.cfg.compactAfter)
	}
	return nil
}

// compactClosedSegments merges every segment of the device numbered below
// activeSeq into the highest-numbered closed segment, once at least
// compactAfter of them have accumulated. The merge is crash-safe: the
// combined log is written to a temp file and fsynced, then renamed over the
// newest closed segment (atomic), the directory synced, and only then are
// the older segments removed. A crash at any point leaves a replayable set
// of segments — at worst an entry exists in two files for a moment, which
// recovery's per-index dedup makes harmless.
func compactClosedSegments(dir, device string, activeSeq, compactAfter int) error {
	segs, err := deviceSegments(dir, device)
	if err != nil {
		return err
	}
	var closed []walSegmentFile
	for _, s := range segs {
		if s.seq < activeSeq {
			closed = append(closed, s)
		}
	}
	if len(closed) < max(2, compactAfter) {
		return nil
	}
	// Re-encode the intact entries rather than splicing raw bytes: a torn
	// tail in a closed segment (possible only after a crash that predates
	// this compaction) must not glue garbage into the merged file.
	buf := appendWALHeader(nil, device)
	for _, s := range closed {
		rs, _, err := readSegment(s.path)
		if err != nil {
			return err
		}
		for _, e := range rs.entries {
			buf = appendWALEntry(buf, e)
		}
	}
	target := closed[len(closed)-1].path
	tmp := target + ".tmp"
	tf, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("ingest: wal compact: %w", err)
	}
	if _, err := tf.Write(buf); err != nil {
		tf.Close()
		os.Remove(tmp)
		return fmt.Errorf("ingest: wal compact write: %w", err)
	}
	if err := tf.Sync(); err != nil {
		tf.Close()
		os.Remove(tmp)
		return fmt.Errorf("ingest: wal compact sync: %w", err)
	}
	if err := tf.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("ingest: wal compact close: %w", err)
	}
	if err := os.Rename(tmp, target); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("ingest: wal compact rename: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return err
	}
	for _, s := range closed[:len(closed)-1] {
		if err := os.Remove(s.path); err != nil {
			return fmt.Errorf("ingest: wal compact remove: %w", err)
		}
	}
	return syncDir(dir)
}

// Close closes the segment file.
func (w *sessionWAL) Close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// recoveredSession is one session's replayable history: the device ID from
// the segment header and its intact entries in append order.
type recoveredSession struct {
	device  string
	entries []walEntry
}

// RecoveryStats summarizes a startup replay of the write-ahead log.
type RecoveryStats struct {
	// Sessions is how many device sessions were restored.
	Sessions int `json:"sessions"`
	// Chunks and Records are the replayed totals across sessions.
	Chunks  int `json:"chunks"`
	Records int `json:"records"`
	// TruncatedBytes counts torn tail bytes discarded across segment files
	// (at most one torn entry per file — the append in flight at the crash).
	TruncatedBytes int64 `json:"truncated_bytes,omitempty"`
	// SkippedChunks counts logged chunks the replay could not apply (an
	// undecodable body after an intact CRC — corruption beyond a torn tail).
	SkippedChunks int `json:"skipped_chunks,omitempty"`
}

// loadWAL reads every session segment under dir, truncating torn tails in
// place, and returns the sessions in device order (deterministic recovery).
// A session split across several segments comes back as one entry stream:
// segments merge in segment order, entries are ordered by their per-session
// index, and an index appearing in two files (the compaction crash window)
// replays exactly once.
func loadWAL(dir string) ([]recoveredSession, int64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, fmt.Errorf("ingest: wal dir: %w", err)
	}
	// An interrupted compaction's scratch files; the originals they were
	// built from are still on disk.
	if names, err := os.ReadDir(dir); err == nil {
		for _, de := range names {
			if strings.HasSuffix(de.Name(), walTmpSuffix) {
				os.Remove(filepath.Join(dir, de.Name()))
			}
		}
	}
	segs, err := listSegments(dir, "")
	if err != nil {
		return nil, 0, err
	}
	byDevice := make(map[string][]parsedSegment)
	var truncated int64
	for _, sf := range segs {
		rs, torn, err := readSegment(sf.path)
		if err != nil {
			return nil, 0, err
		}
		truncated += torn
		// The header's device is authoritative; the filename only orders the
		// device's segments.
		byDevice[rs.device] = append(byDevice[rs.device], parsedSegment{seq: sf.seq, entries: rs.entries})
	}
	sessions := make([]recoveredSession, 0, len(byDevice))
	for device, segs := range byDevice {
		sessions = append(sessions, recoveredSession{device: device, entries: mergeSegmentEntries(segs)})
	}
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].device < sessions[j].device })
	return sessions, truncated, nil
}

// parsedSegment is one decoded segment of a session's log.
type parsedSegment struct {
	seq     int
	entries []walEntry
}

// mergeSegmentEntries flattens a session's segments into one replayable
// entry stream. Entries are written with monotonically increasing indexes,
// so after a stable sort over the seq-ordered concatenation the stream is in
// append order; duplicate indexes (an entry caught mid-compaction in two
// files) collapse to their first copy.
func mergeSegmentEntries(segs []parsedSegment) []walEntry {
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	var entries []walEntry
	for _, s := range segs {
		entries = append(entries, s.entries...)
	}
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].index < entries[j].index })
	deduped := entries[:0]
	for i, e := range entries {
		if i > 0 && e.index == entries[i-1].index {
			continue
		}
		deduped = append(deduped, e)
	}
	return deduped
}

// readDeviceWAL reads and merges every segment of one device, truncating
// torn tails in place — the resurrection-path counterpart of loadWAL.
// found is false when the device has no segments on disk.
func readDeviceWAL(dir, device string) (recoveredSession, bool, error) {
	segs, err := deviceSegments(dir, device)
	if err != nil {
		return recoveredSession{}, false, err
	}
	if len(segs) == 0 {
		return recoveredSession{}, false, nil
	}
	parsed := make([]parsedSegment, 0, len(segs))
	for _, sf := range segs {
		rs, _, err := readSegment(sf.path)
		if err != nil {
			return recoveredSession{}, false, err
		}
		parsed = append(parsed, parsedSegment{seq: sf.seq, entries: rs.entries})
	}
	return recoveredSession{device: device, entries: mergeSegmentEntries(parsed)}, true, nil
}

// readSegment parses one segment file, truncating it back to the last
// complete entry when the tail is torn. A file whose header itself is
// unreadable is rejected outright — it is not a WAL segment, and silently
// skipping it would un-ack data.
func readSegment(path string) (recoveredSession, int64, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return recoveredSession{}, 0, fmt.Errorf("ingest: open wal segment: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return recoveredSession{}, 0, fmt.Errorf("ingest: wal segment %s: %w", path, err)
	}
	size := st.Size()
	cr := &walCountingReader{r: bufio.NewReaderSize(f, 1<<16)}

	head := make([]byte, len(walMagic)+1)
	if _, err := io.ReadFull(cr, head); err != nil {
		return recoveredSession{}, 0, fmt.Errorf("ingest: wal segment %s: header: %w", path, err)
	}
	if string(head[:len(walMagic)]) != string(walMagic) {
		return recoveredSession{}, 0, fmt.Errorf("ingest: %s is not a wal segment (bad magic %q)", path, head[:len(walMagic)])
	}
	if v := head[len(walMagic)]; v != walVersion {
		return recoveredSession{}, 0, fmt.Errorf("ingest: wal segment %s: version %d not supported (want %d)", path, v, walVersion)
	}
	// Length prefixes are additionally capped by the bytes actually left in
	// the file: a corrupt prefix claiming gigabytes cannot drive a huge
	// allocation before ReadFull discovers the truth at EOF.
	device, err := readWALString(cr, uint64(min(int64(maxWALEntry), size-cr.n)))
	if err != nil {
		return recoveredSession{}, 0, fmt.Errorf("ingest: wal segment %s: device: %w", path, err)
	}

	rs := recoveredSession{device: device}
	good := cr.n // offset after the last complete entry
	for {
		e, err := readWALEntry(cr, size-cr.n)
		if err == io.EOF {
			break
		}
		if err != nil {
			// Torn tail: the entry being appended at the crash. Everything
			// before it is intact; cut the file back so future appends start
			// from a clean boundary.
			break
		}
		rs.entries = append(rs.entries, e)
		good = cr.n
	}
	torn := size - good
	if torn > 0 {
		if err := f.Truncate(good); err != nil {
			return recoveredSession{}, 0, fmt.Errorf("ingest: wal segment %s: truncate torn tail: %w", path, err)
		}
		if err := f.Sync(); err != nil {
			return recoveredSession{}, 0, fmt.Errorf("ingest: wal segment %s: sync truncation: %w", path, err)
		}
	}
	return rs, torn, nil
}

// readWALEntry reads one entry. io.EOF at an entry boundary is a clean end;
// any other error (including EOF mid-entry and a CRC mismatch) marks a torn
// tail. remain is the byte count left in the file at the entry's start: a
// length prefix claiming more than that is corruption, rejected before the
// allocation it would otherwise size.
func readWALEntry(r io.Reader, remain int64) (walEntry, error) {
	br := r.(io.ByteReader)
	index, err := binary.ReadUvarint(br)
	if err != nil {
		if err == io.EOF {
			return walEntry{}, io.EOF
		}
		return walEntry{}, fmt.Errorf("ingest: wal entry index: %w", err)
	}
	streamLen, err := binary.ReadUvarint(br)
	if err != nil {
		return walEntry{}, fmt.Errorf("ingest: wal entry stream length: %w", err)
	}
	if streamLen > maxWALEntry || int64(streamLen) > remain {
		return walEntry{}, fmt.Errorf("ingest: wal entry stream length %d implausible", streamLen)
	}
	stream := make([]byte, streamLen)
	if _, err := io.ReadFull(r, stream); err != nil {
		return walEntry{}, fmt.Errorf("ingest: wal entry stream: %w", err)
	}
	chunk, err := binary.ReadVarint(br)
	if err != nil {
		return walEntry{}, fmt.Errorf("ingest: wal entry chunk: %w", err)
	}
	nanos, err := binary.ReadVarint(br)
	if err != nil {
		return walEntry{}, fmt.Errorf("ingest: wal entry time: %w", err)
	}
	bodyLen, err := binary.ReadUvarint(br)
	if err != nil {
		return walEntry{}, fmt.Errorf("ingest: wal entry body length: %w", err)
	}
	if bodyLen > maxWALEntry || int64(bodyLen) > remain {
		return walEntry{}, fmt.Errorf("ingest: wal entry body of %d bytes exceeds the %d limit", bodyLen, maxWALEntry)
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(r, crcBuf[:]); err != nil {
		return walEntry{}, fmt.Errorf("ingest: wal entry crc: %w", err)
	}
	body := make([]byte, bodyLen)
	if _, err := io.ReadFull(r, body); err != nil {
		return walEntry{}, fmt.Errorf("ingest: wal entry body: %w", err)
	}
	sum := binary.LittleEndian.Uint32(crcBuf[:])
	if got := httpx.Checksum(body); got != sum {
		return walEntry{}, fmt.Errorf("ingest: wal entry crc mismatch (%08x != %08x)", got, sum)
	}
	return walEntry{
		index:  index,
		stream: string(stream),
		chunk:  int(chunk),
		when:   time.Unix(0, nanos),
		body:   body,
		sum:    sum,
	}, nil
}

// readWALString reads a uvarint-prefixed string.
func readWALString(r io.Reader, limit uint64) (string, error) {
	n, err := binary.ReadUvarint(r.(io.ByteReader))
	if err != nil {
		return "", err
	}
	if n > limit {
		return "", fmt.Errorf("string length %d implausible", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", err
	}
	return string(b), nil
}

// walCountingReader tracks the byte offset while exposing ByteReader (varint
// decoding) — what lets readSegment know the exact boundary of the last
// complete entry.
type walCountingReader struct {
	r *bufio.Reader
	n int64
}

func (c *walCountingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *walCountingReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err == nil {
		c.n++
	}
	return b, err
}

// SessionWALStats is one session's on-disk write-ahead footprint — how many
// segment files the log currently spans and their total size. Surfaced per
// device by /healthz so segment rotation and compaction are observable.
type SessionWALStats struct {
	Segments int   `json:"segments"`
	Bytes    int64 `json:"bytes"`
}

// walStats sizes every session's segment files under dir, keyed by device.
// It reads only directory metadata (names and sizes), never file contents,
// so a health probe stays cheap no matter how much history the logs hold.
// The device comes from the file name (the escaping is injective), which
// also covers evicted sessions whose logs are still on disk.
func walStats(dir string) (map[string]SessionWALStats, error) {
	segs, err := listSegments(dir, "")
	if err != nil {
		return nil, err
	}
	stats := make(map[string]SessionWALStats)
	for _, sf := range segs {
		device, err := url.PathUnescape(sf.esc)
		if err != nil {
			continue
		}
		s := stats[device]
		s.Segments++
		s.Bytes += sf.size
		stats[device] = s
	}
	return stats, nil
}
