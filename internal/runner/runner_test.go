package runner

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mlexray/internal/core"
	"mlexray/internal/datasets"
	"mlexray/internal/ops"
	"mlexray/internal/pipeline"
	"mlexray/internal/zoo"
)

const testFrames = 6

// TestMain turns the recycle scribble on for the whole package (the race leg
// included): every replay that lends its captures — a sink with DiscardLog —
// overwrites them the moment the range is flushed, so any alias kept past
// Sink.WriteFrame shows up in the byte-identity pins as 0xA5 payloads and
// zeroed records.
func TestMain(m *testing.M) {
	core.ScribbleRecycledCaptures(true)
	os.Exit(m.Run())
}

var monOpts = []core.MonitorOption{core.WithCaptureMode(core.CaptureFull), core.WithPerLayer(true)}

// sequentialLog replays the samples the way the pre-runner code did: one
// pipeline, one monitor, frames in order.
func sequentialLog(t testing.TB, bug pipeline.Bug, resolver *ops.Resolver) *core.Log {
	t.Helper()
	entry, err := zoo.Get("mobilenetv2-mini")
	if err != nil {
		t.Fatal(err)
	}
	mon := core.NewMonitor(monOpts...)
	cl, err := pipeline.NewClassifier(entry.Mobile, pipeline.Options{Resolver: resolver, Monitor: mon, Bug: bug})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range datasets.SynthImageNet(5555, testFrames) {
		if _, _, err := cl.Classify(s.Image); err != nil {
			t.Fatal(err)
		}
	}
	return mon.Log()
}

// parallelLog replays the same samples through the worker pool.
func parallelLog(t testing.TB, bug pipeline.Bug, resolver *ops.Resolver, workers int, sink core.Sink, discard bool) *core.Log {
	t.Helper()
	return replayLog(t, bug, resolver, Options{Workers: workers, MonitorOptions: monOpts, Sink: sink, DiscardLog: discard})
}

// replayLog is parallelLog with every engine option the caller's.
func replayLog(t testing.TB, bug pipeline.Bug, resolver *ops.Resolver, opts Options) *core.Log {
	t.Helper()
	entry, err := zoo.Get("mobilenetv2-mini")
	if err != nil {
		t.Fatal(err)
	}
	samples := datasets.SynthImageNet(5555, testFrames)
	base, err := pipeline.NewClassifier(entry.Mobile, pipeline.Options{Resolver: resolver, Bug: bug})
	if err != nil {
		t.Fatal(err)
	}
	l, err := ReplayBatched(len(samples), func(mon *core.Monitor) (ProcessBatchFunc, error) {
		cl, err := base.Clone(mon)
		if err != nil {
			return nil, err
		}
		return PerFrame(mon, func(i int) error {
			_, _, err := cl.Classify(samples[i].Image)
			return err
		}), nil
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// encoded is Log.Write of l, wall-clock values masked.
func encoded(t testing.TB, l *core.Log, format core.LogFormat) []byte {
	t.Helper()
	normalizeWallClock(l)
	var buf bytes.Buffer
	if err := l.Write(&buf, format); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// reencoded reads a streamed log back and returns encoded of it: what the
// stream's bytes are once the wall-clock values no two runs share are masked.
func reencoded(t testing.TB, streamed []byte, format core.LogFormat) []byte {
	t.Helper()
	l, err := core.ReadLog(bytes.NewReader(streamed))
	if err != nil {
		t.Fatal(err)
	}
	return encoded(t, l, format)
}

// normalizeWallClock zeroes wall-clock latency values ("ns" unit), the only
// record content that legitimately differs between two runs — even two
// sequential ones.
// perFrame is a worker factory whose workers run body once per frame against
// their monitor shard.
func perFrame(body func(mon *core.Monitor, frame int) error) BatchWorkerFactory {
	return func(mon *core.Monitor) (ProcessBatchFunc, error) {
		return PerFrame(mon, func(i int) error { return body(mon, i) }), nil
	}
}

func normalizeWallClock(l *core.Log) {
	for i := range l.Records {
		if l.Records[i].Kind == core.KindMetric && l.Records[i].Unit == "ns" {
			l.Records[i].Value = 0
		}
	}
}

func logBytes(t testing.TB, l *core.Log) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReplayMatchesSequential is the determinism contract: for any worker
// count, the merged log is byte-identical to a sequential replay after
// wall-clock normalization.
func TestReplayMatchesSequential(t *testing.T) {
	seq := sequentialLog(t, pipeline.BugNone, ops.NewReference(ops.Fixed()))
	normalizeWallClock(seq)
	want := logBytes(t, seq)
	for _, workers := range []int{1, 2, 8} {
		par := parallelLog(t, pipeline.BugNone, ops.NewReference(ops.Fixed()), workers, nil, false)
		normalizeWallClock(par)
		if got := logBytes(t, par); !bytes.Equal(got, want) {
			t.Errorf("workers=%d: merged log differs from sequential (%d vs %d bytes)", workers, len(got), len(want))
		}
	}
}

// TestReplayValidatorIdentical feeds sequential and parallel reference logs
// to the full validation flow against the same bugged edge log: CompareLayers
// and the rendered report must be byte-identical.
func TestReplayValidatorIdentical(t *testing.T) {
	edge := sequentialLog(t, pipeline.BugNormalization, ops.NewOptimized(ops.Fixed()))
	refSeq := sequentialLog(t, pipeline.BugNone, ops.NewReference(ops.Fixed()))
	normalizeWallClock(edge)
	normalizeWallClock(refSeq)

	wantDiffs, err := core.CompareLayers(edge, refSeq)
	if err != nil {
		t.Fatal(err)
	}
	wantRep, err := core.Validate(edge, refSeq, core.DefaultValidateOptions())
	if err != nil {
		t.Fatal(err)
	}
	var wantBuf bytes.Buffer
	wantRep.Render(&wantBuf)

	for _, workers := range []int{1, 2, 8} {
		refPar := parallelLog(t, pipeline.BugNone, ops.NewReference(ops.Fixed()), workers, nil, false)
		normalizeWallClock(refPar)
		gotDiffs, err := core.CompareLayers(edge, refPar)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotDiffs, wantDiffs) {
			t.Errorf("workers=%d: CompareLayers output differs from sequential", workers)
		}
		gotRep, err := core.Validate(edge, refPar, core.DefaultValidateOptions())
		if err != nil {
			t.Fatal(err)
		}
		var gotBuf bytes.Buffer
		gotRep.Render(&gotBuf)
		if !bytes.Equal(gotBuf.Bytes(), wantBuf.Bytes()) {
			t.Errorf("workers=%d: validator report differs:\n--- sequential ---\n%s--- parallel ---\n%s",
				workers, wantBuf.String(), gotBuf.String())
		}
	}
}

// TestReplayMaxPendingBoundsWindow pins the reorder-window cap: with frame 0
// stalled, at most 4 × workers × batch frames may enter processing before
// the flush releases credits.
func TestReplayMaxPendingBoundsWindow(t *testing.T) {
	const frames = 60
	const workers = 4
	const maxPending = 4 * workers * 1
	var started, flushed atomic.Int64
	var worst atomic.Int64
	sink := sinkFunc(func(frame int, recs []core.Record) error {
		flushed.Add(1)
		return nil
	})
	l, err := ReplayBatched(frames, perFrame(func(mon *core.Monitor, i int) error {
		inFlight := started.Add(1) - flushed.Load()
		for {
			w := worst.Load()
			if inFlight <= w || worst.CompareAndSwap(w, inFlight) {
				break
			}
		}
		if i == 0 {
			time.Sleep(50 * time.Millisecond) // the straggler everyone else outruns
		}
		mon.NextFrame()
		mon.LogMetric("frame/value", float64(i), "count")
		return nil
	}), Options{Workers: workers, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Records) != frames {
		t.Fatalf("%d records for %d frames", len(l.Records), frames)
	}
	if w := worst.Load(); w > maxPending {
		t.Errorf("reorder window reached %d in-flight frames, cap is %d", w, maxPending)
	}
	// The cap must throttle, not deadlock: everything flushed.
	if f := flushed.Load(); f != frames {
		t.Errorf("flushed %d of %d frames", f, frames)
	}
}

// TestReplayLentWindowIsDoubleBuffered pins the window of the lent path (a
// sink and DiscardLog): a lent range in flight pins a payload slab sized for
// the whole range, so a worker that outruns the sink may be two ranges ahead
// per worker — one with the collector, one being captured — not four.
func TestReplayLentWindowIsDoubleBuffered(t *testing.T) {
	const frames, batch = 64, 4
	var started, flushed, worst atomic.Int64
	sink := sinkFunc(func(frame int, recs []core.Record) error {
		time.Sleep(200 * time.Microsecond) // the sink is the slow side
		flushed.Add(1)
		return nil
	})
	_, err := ReplayBatched(frames, perFrame(func(mon *core.Monitor, i int) error {
		if inFlight := started.Add(1) - flushed.Load(); inFlight > worst.Load() {
			worst.Store(inFlight) // one worker: no race on worst
		}
		mon.NextFrame()
		mon.LogMetric("frame/value", float64(i), "count")
		return nil
	}), Options{Workers: 1, BatchFrames: batch, Sink: sink, DiscardLog: true})
	if err != nil {
		t.Fatal(err)
	}
	if w := worst.Load(); w > 2*batch {
		t.Errorf("lent window reached %d in-flight frames, cap is %d (two ranges of %d)", w, 2*batch, batch)
	}
	if f := flushed.Load(); f != frames {
		t.Errorf("flushed %d of %d frames", f, frames)
	}
}

type sinkFunc func(frame int, recs []core.Record) error

func (f sinkFunc) WriteFrame(frame int, recs []core.Record) error { return f(frame, recs) }

func (f sinkFunc) Flush() error { return nil }

// TestReplayBatchedFrameTagContract verifies the loud failure when a batch
// worker mis-tags frames (the silent-corruption class of bug).
func TestReplayBatchedFrameTagContract(t *testing.T) {
	_, err := ReplayBatched(8, func(mon *core.Monitor) (ProcessBatchFunc, error) {
		return func(start, end int) error {
			for g := start; g < end; g++ {
				mon.NextFrame()
				mon.NextFrame() // skips ahead: tags drift out of the range
				mon.LogMetric("x", 1, "count")
			}
			return nil
		}, nil
	}, Options{Workers: 2, BatchFrames: 4})
	if err == nil || !strings.Contains(err.Error(), "outside dispatched range") {
		t.Fatalf("want frame-tag contract error, got %v", err)
	}
}

// TestReplayStreamingSink checks that the streaming path writes exactly the
// merged log, and that DiscardLog keeps the returned log empty.
func TestReplayStreamingSink(t *testing.T) {
	path := filepath.Join(t.TempDir(), "replay.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sink := core.NewJSONLSink(f)
	merged := parallelLog(t, pipeline.BugNone, ops.NewReference(ops.Fixed()), 4, sink, false)
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if sink.Records() != len(merged.Records) {
		t.Fatalf("sink wrote %d records, merged log has %d", sink.Records(), len(merged.Records))
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, logBytes(t, merged)) {
		t.Error("streamed JSONL differs from the merged in-memory log")
	}

	// Discard path: telemetry only reaches the sink.
	var buf bytes.Buffer
	sink2 := core.NewJSONLSink(&buf)
	empty := parallelLog(t, pipeline.BugNone, ops.NewReference(ops.Fixed()), 4, sink2, true)
	if err := sink2.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(empty.Records) != 0 {
		t.Errorf("DiscardLog returned %d records", len(empty.Records))
	}
	readBack, err := core.ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(readBack.Records) != len(merged.Records) {
		t.Errorf("discarded replay streamed %d records, want %d", len(readBack.Records), len(merged.Records))
	}

	// The discard path lends its captures: whatever the range length, worker
	// count (one: the collector encodes; three: JSONL pre-encodes on the
	// workers) and format, the stream is Log.Write of the in-memory replay.
	for _, format := range []core.LogFormat{core.FormatJSONL, core.FormatBinary} {
		want := encoded(t, merged, format)
		for _, workers := range []int{1, 3} {
			for _, batch := range []int{1, 8} {
				var buf bytes.Buffer
				sink, err := core.NewLogSink(&buf, format)
				if err != nil {
					t.Fatal(err)
				}
				replayLog(t, pipeline.BugNone, ops.NewReference(ops.Fixed()),
					Options{Workers: workers, BatchFrames: batch, MonitorOptions: monOpts, Sink: sink, DiscardLog: true})
				if err := sink.Flush(); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(reencoded(t, buf.Bytes(), format), want) {
					t.Errorf("%v workers=%d batch=%d: lent replay streamed a different log than the in-memory replay writes", format, workers, batch)
				}
			}
		}
	}
}

// TestReplayRetainingSinkIsCaught is the proof that the scribble hook bites:
// a sink that keeps what WriteFrame was handed — against core.Sink's rule —
// reads 0xA5 payloads and zeroed records after the replay, while one that
// copies what it keeps reads the capture.
func TestReplayRetainingSinkIsCaught(t *testing.T) {
	want := parallelLog(t, pipeline.BugNone, ops.NewReference(ops.Fixed()), 1, nil, false)
	var kept, copied []core.Record
	var keptPayloads [][]byte
	sink := sinkFunc(func(frame int, recs []core.Record) error {
		kept = append(kept, recs...)
		for i := range recs {
			keptPayloads = append(keptPayloads, recs[i].Payload)
			c := recs[i]
			c.Payload = bytes.Clone(c.Payload)
			copied = append(copied, c)
		}
		return nil
	})
	replayLog(t, pipeline.BugNone, ops.NewReference(ops.Fixed()),
		Options{Workers: 1, BatchFrames: 2, MonitorOptions: monOpts, Sink: sink, DiscardLog: true})
	if got := encoded(t, &core.Log{Records: copied}, core.FormatBinary); !bytes.Equal(got, encoded(t, want, core.FormatBinary)) {
		t.Error("a sink copying what it keeps did not read the capture")
	}
	if got := encoded(t, &core.Log{Records: kept}, core.FormatBinary); bytes.Equal(got, encoded(t, want, core.FormatBinary)) {
		t.Fatal("a sink retaining its frames' records went unnoticed: the recycle scribble is not biting")
	}
	// The retained payload slices themselves: all of the last range's (the
	// slab was sized by then) and most of the others' read as scribble.
	scribbled := 0
	for _, p := range keptPayloads {
		if len(p) > 0 && bytes.Count(p, []byte{0xA5}) == len(p) {
			scribbled++
		}
	}
	if scribbled == 0 {
		t.Error("no retained payload was scribbled")
	}
}

// TestReplayWorkerRunsAheadOfStalledSink pins the overlap: the sink stalls
// inside the first frame's WriteFrame until the worker body has completed a
// whole reorder window of frames. A worker that had to park on delivery (a
// results channel shorter than the window) would never get there.
func TestReplayWorkerRunsAheadOfStalledSink(t *testing.T) {
	const maxPending = 4 * 1 * 1
	var completed atomic.Int64
	windowDone := make(chan struct{})
	sink := sinkFunc(func(frame int, recs []core.Record) error {
		if frame == 1 {
			select {
			case <-windowDone:
			case <-time.After(5 * time.Second):
				return fmt.Errorf("worker completed %d frames while the sink held frame 1, want %d", completed.Load(), maxPending)
			}
		}
		return nil
	})
	done := make(chan error, 1)
	go func() {
		_, err := ReplayBatched(3*maxPending, perFrame(func(mon *core.Monitor, i int) error {
			mon.NextFrame()
			mon.LogMetric("frame/value", float64(i), "count")
			if completed.Add(1) == maxPending {
				close(windowDone)
			}
			return nil
		}), Options{Workers: 1, Sink: sink})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("replay deadlocked behind a stalled sink")
	}
}

// TestReplayUninstrumentedAllocsPerFrame pins what the engine itself
// allocates per frame when nothing is captured (the edge_eval path):
// nothing. The range split is reused and the reorder window is a ring
// allocated once, so a field added to frameResult cannot turn into a boxed
// map value per frame.
func TestReplayUninstrumentedAllocsPerFrame(t *testing.T) {
	const frames = 512
	noop := perFrame(func(*core.Monitor, int) error { return nil })
	replay := func() {
		if _, err := ReplayBatched(frames, noop, Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	}
	replay()
	var before, after runtime.MemStats
	const runs = 10
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		replay()
	}
	runtime.ReadMemStats(&after)
	perFrame := float64(after.TotalAlloc-before.TotalAlloc) / (runs * frames)
	if perFrame > 8 {
		t.Errorf("uninstrumented replay allocates %.1f bytes per frame, want only a 512th of the per-replay set-up (<= 8)", perFrame)
	}
}

func TestReplayErrorStopsPool(t *testing.T) {
	boom := fmt.Errorf("injected failure")
	_, err := ReplayBatched(64, perFrame(func(mon *core.Monitor, i int) error {
		if i == 3 {
			return boom
		}
		mon.NextFrame()
		mon.LogMetric("test/metric", float64(i), "count")
		return nil
	}), Options{Workers: 4})
	if err == nil || !strings.Contains(err.Error(), "frame 3") {
		t.Fatalf("want frame-3 error, got %v", err)
	}
}

func TestReplayFactoryError(t *testing.T) {
	boom := fmt.Errorf("no pipeline for you")
	_, err := ReplayBatched(4, func(mon *core.Monitor) (ProcessBatchFunc, error) {
		return nil, boom
	}, Options{Workers: 2})
	if err == nil || !strings.Contains(err.Error(), "no pipeline") {
		t.Fatalf("want factory error, got %v", err)
	}
}

func TestReplayEdgeCases(t *testing.T) {
	noop := perFrame(func(*core.Monitor, int) error { return nil })
	l, err := ReplayBatched(0, noop, Options{Workers: 4})
	if err != nil || len(l.Records) != 0 {
		t.Fatalf("zero frames: log=%v err=%v", l, err)
	}
	if _, err := ReplayBatched(-1, noop, Options{}); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("negative frames: %v", err)
	}
	if _, err := ReplayBatched(1, noop, Options{DiscardLog: true}); err == nil || !strings.Contains(err.Error(), "DiscardLog") {
		t.Fatalf("DiscardLog without sink: %v", err)
	}
}

// TestReplayNilFactory: a nil worker factory is a documented error returned
// before any worker is built, not a nil-pointer panic.
func TestReplayNilFactory(t *testing.T) {
	if _, err := ReplayBatched(3, nil, Options{}); err == nil || err.Error() != "runner: nil worker factory" {
		t.Fatalf("nil factory: %v", err)
	}
}

// TestSplitByFrame pins the drained-range split: groups are sub-slices of
// the drained records (no copy), frames that logged nothing get no group, and
// both out-of-contract taggings — outside the range, or out of frame order —
// fail loudly.
func TestSplitByFrame(t *testing.T) {
	tagged := func(frames ...int) []core.Record {
		recs := make([]core.Record, len(frames))
		for i, f := range frames {
			recs[i] = core.Record{Key: fmt.Sprintf("r%d", i), Frame: f}
		}
		return recs
	}
	recs := tagged(5, 5, 7, 7, 7)
	groups, err := splitByFrame(nil, 4, 8, recs) // frame tags 5..8
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 4 || len(groups[0]) != 2 || groups[1] != nil || len(groups[2]) != 3 || groups[3] != nil {
		t.Fatalf("groups = %v", groups)
	}
	if &groups[0][0] != &recs[0] || &groups[2][0] != &recs[2] {
		t.Error("groups are copies, want sub-slices of the drained records")
	}
	if cap(groups[0]) != 2 {
		t.Errorf("group 0 has cap %d: an append would scribble on the next frame's records", cap(groups[0]))
	}
	if _, err := splitByFrame(nil, 4, 8, tagged(5, 9)); err == nil || !strings.Contains(err.Error(), "outside dispatched range") {
		t.Errorf("out-of-range tag: %v", err)
	}
	if _, err := splitByFrame(nil, 4, 8, tagged(6, 6, 5)); err == nil || !strings.Contains(err.Error(), "out of frame order") {
		t.Errorf("non-monotone tag: %v", err)
	}
}

// TestMergeByFrameMatchesReplay pins the two expressions of the merge
// contract to each other: hand-sharding frames across monitors and calling
// core.MergeByFrame must yield byte-identical output to Replay's streaming
// collector over the same frames.
func TestMergeByFrameMatchesReplay(t *testing.T) {
	const n = 10
	record := func(mon *core.Monitor, i int) {
		mon.SetNextFrame(i + 1)
		mon.NextFrame()
		mon.LogMetric("frame/value", float64(i*3), "count")
		mon.LogSensor("frame/sensor", float64(i), "deg")
	}
	monA, monB := core.NewMonitor(), core.NewMonitor()
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			record(monA, i)
		} else {
			record(monB, i)
		}
	}
	manual := core.MergeByFrame(monA.Log(), monB.Log())

	viaReplay, err := ReplayBatched(n, perFrame(func(mon *core.Monitor, i int) error {
		mon.NextFrame() // the engine pre-seeks the shard; same frame tags
		mon.LogMetric("frame/value", float64(i*3), "count")
		mon.LogSensor("frame/sensor", float64(i), "deg")
		return nil
	}), Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(logBytes(t, manual), logBytes(t, viaReplay)) {
		t.Error("MergeByFrame and Replay's collector disagree on the merge contract")
	}
}

// TestReplayCustomProcessFunc exercises a non-pipeline worker: per-frame bodies
// that log directly against the shard monitor still merge deterministically.
func TestReplayCustomProcessFunc(t *testing.T) {
	run := func(workers int) *core.Log {
		l, err := ReplayBatched(40, perFrame(func(mon *core.Monitor, i int) error {
			mon.NextFrame()
			mon.LogMetric("frame/value", float64(i*i), "count")
			mon.LogSensor("frame/sensor", float64(i), "deg")
			return nil
		}), Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	want := logBytes(t, run(1))
	for _, w := range []int{2, 8} {
		if got := logBytes(t, run(w)); !bytes.Equal(got, want) {
			t.Errorf("workers=%d: custom replay not deterministic", w)
		}
	}
	// Frames are numbered 1..40 (sequential NextFrame convention), so
	// Frames() — max frame + 1 — reports 41, exactly as a sequential run.
	l := run(3)
	if got := l.Frames(); got != 41 {
		t.Errorf("Frames() = %d, want 41", got)
	}
	for i, r := range l.Records {
		if r.Seq != i {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
	}
}

// TestReplayMergedLogSizedOnce: every frame logs what the first did, so the
// merged log is allocated once at its final size instead of grown by
// doubling — and a replay that captures nothing still returns a log with no
// backing array at all.
func TestReplayMergedLogSizedOnce(t *testing.T) {
	const frames, perFrameRecords = 50, 3
	l, err := ReplayBatched(frames, perFrame(func(mon *core.Monitor, i int) error {
		mon.NextFrame()
		for k := 0; k < perFrameRecords; k++ {
			mon.LogMetric("test/metric", float64(i), "count")
		}
		return nil
	}), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Records) != frames*perFrameRecords || cap(l.Records) != len(l.Records) {
		t.Errorf("merged log: len %d cap %d, want both %d", len(l.Records), cap(l.Records), frames*perFrameRecords)
	}
	l, err = ReplayBatched(frames, perFrame(func(*core.Monitor, int) error { return nil }), Options{Workers: 2})
	if err != nil || l.Records != nil {
		t.Errorf("uninstrumented replay: records %v (cap %d), err %v; want none", l.Records, cap(l.Records), err)
	}
}
