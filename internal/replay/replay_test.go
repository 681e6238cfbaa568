package replay

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"mlexray/internal/core"
	"mlexray/internal/datasets"
	"mlexray/internal/device"
	"mlexray/internal/graph"
	"mlexray/internal/imaging"
	"mlexray/internal/interp"
	"mlexray/internal/metrics"
	"mlexray/internal/ops"
	"mlexray/internal/pipeline"
	"mlexray/internal/runner"
	"mlexray/internal/tensor"
	"mlexray/internal/zoo"
)

const testFrames = 6

// scribbleRecycled turns the recycle scribble on until t ends: a replay that
// lends its captures then overwrites them once flushed, so an alias kept past
// Sink.WriteFrame breaks the byte-identity pins. Every test that lends calls
// it, the race leg included; the benchmarks do not, so they time the recycle
// the product runs.
func scribbleRecycled(t testing.TB) {
	was := core.ScribbleRecycledCaptures(true)
	t.Cleanup(func() { core.ScribbleRecycledCaptures(was) })
}

var monOpts = []core.MonitorOption{core.WithCaptureMode(core.CaptureFull), core.WithPerLayer(true)}

// testImages returns the evaluation images of the standard test replay.
func testImages(t testing.TB, frames int) []*imaging.Image {
	t.Helper()
	return Images(datasets.SynthImageNet(5555, frames))
}

// testModel fetches a mobilenetv2-mini variant: the float mobile model, or
// the full-integer quantized one when quant is set.
func testModel(t testing.TB, quant bool) *graph.Model {
	t.Helper()
	entry, err := zoo.Get("mobilenetv2-mini")
	if err != nil {
		t.Fatal(err)
	}
	if quant {
		return entry.Quant
	}
	return entry.Mobile
}

// sequentialLog replays the samples the way the pre-runner code did: one
// pipeline, one monitor, frames in order.
func sequentialLog(t testing.TB, m *graph.Model, bug pipeline.Bug, resolver *ops.Resolver, dev *device.Profile) *core.Log {
	t.Helper()
	mon := core.NewMonitor(monOpts...)
	cl, err := pipeline.NewClassifier(m, pipeline.Options{Resolver: resolver, Monitor: mon, Bug: bug, Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	for _, im := range testImages(t, testFrames) {
		if _, _, err := cl.Classify(im); err != nil {
			t.Fatal(err)
		}
	}
	return mon.Log()
}

// batchedLog replays the standard samples through Classification.
func batchedLog(t testing.TB, m *graph.Model, bug pipeline.Bug, resolver *ops.Resolver, workers, batch int, dev *device.Profile) *core.Log {
	t.Helper()
	l, err := Classification(m,
		pipeline.Options{Resolver: resolver, Bug: bug, Device: dev},
		testImages(t, testFrames),
		runner.Options{Workers: workers, BatchFrames: batch, MonitorOptions: monOpts}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// normalizeWallClock zeroes wall-clock latency values ("ns" unit), the only
// record content that legitimately differs between two runs — even two
// sequential ones.
func normalizeWallClock(l *core.Log) {
	for i := range l.Records {
		if l.Records[i].Kind == core.KindMetric && l.Records[i].Unit == "ns" {
			l.Records[i].Value = 0
		}
	}
}

// teeSink streams every frame to a JSONL and an MLXB sink.
type teeSink struct {
	sinks [2]core.LogSink
	bufs  *[2]bytes.Buffer
}

func newTeeSink(t testing.TB) teeSink {
	t.Helper()
	ts := teeSink{bufs: new([2]bytes.Buffer)}
	for i, format := range []core.LogFormat{core.FormatJSONL, core.FormatBinary} {
		var err error
		if ts.sinks[i], err = core.NewLogSink(&ts.bufs[i], format); err != nil {
			t.Fatal(err)
		}
	}
	return ts
}

func (ts teeSink) WriteFrame(frame int, recs []core.Record) error {
	for _, s := range ts.sinks {
		if err := s.WriteFrame(frame, recs); err != nil {
			return err
		}
	}
	return nil
}

func (ts teeSink) Flush() error { return nil }

// checkStreams flushes both streams and holds each, wall-clock values
// masked, to Log.Write of want.
func (ts teeSink) checkStreams(t testing.TB, what string, want *core.Log) {
	t.Helper()
	for i, s := range ts.sinks {
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		back, err := core.ReadLog(bytes.NewReader(ts.bufs[i].Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encoded(t, back, s.Format()), encoded(t, want, s.Format())) {
			t.Errorf("%s: %v stream differs from the in-memory log", what, s.Format())
		}
	}
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

func logBytes(t testing.TB, l *core.Log) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// taskCase is one row of the determinism table: a task's replay binding and
// an independent oracle for it, written against the plain pipeline API.
type taskCase struct {
	name, model string
	// oracle builds one pipeline and returns its per-frame body: replay
	// dataset frame i, return a printout of the result.
	oracle func(m *graph.Model, o pipeline.Options) (func(i int) (string, error), error)
	// single and fleet replay the same frames through the binding; single
	// stores each frame's printed onFrame result in results.
	single func(m *graph.Model, o pipeline.Options, ropts runner.Options, results []string) (*core.Log, error)
	fleet  func(m *graph.Model, o pipeline.Options, f *runner.Fleet) (*runner.FleetResult, error)
}

// bound fills a taskCase's replay side from the task's binding.
func bound[R any](tc taskCase, b func(m *graph.Model) binding[R], print func(R) string) taskCase {
	tc.single = func(m *graph.Model, o pipeline.Options, ropts runner.Options, results []string) (*core.Log, error) {
		return run(b(m), o, ropts, func(i int, r R) error {
			results[i] = print(r)
			return nil
		})
	}
	tc.fleet = func(m *graph.Model, o pipeline.Options, f *runner.Fleet) (*runner.FleetResult, error) {
		return runFleet(b(m), o, f, nil)
	}
	return tc
}

const tableFrames = 14 // at batch 4: three full ranges and a short tail

func printClassified(r ClassifyResult) string { return fmt.Sprint(r.Pred, r.Modeled) }

func taskCases() []taskCase {
	images := Images(datasets.SynthImageNet(5555, tableFrames))
	coco := datasets.SynthCOCO(6666, tableFrames)
	cocoImages := make([]*imaging.Image, len(coco))
	for i := range coco {
		cocoImages[i] = coco[i].Image
	}
	segs := datasets.SynthSegmentation(8888, tableFrames)
	waves := datasets.SynthSpeech(7777, tableFrames)
	reviews := datasets.SynthIMDB(9999, tableFrames)
	printDetected := func(r DetectResult) string { return fmt.Sprint(r.Scores.F, r.Boxes.F) }
	printLabels := func(labels []int32) string { return fmt.Sprint(labels) }
	return []taskCase{
		bound(taskCase{name: "classification", model: "mobilenetv2-mini",
			oracle: func(m *graph.Model, o pipeline.Options) (func(int) (string, error), error) {
				cl, err := pipeline.NewClassifier(m, o)
				if err != nil {
					return nil, err
				}
				return func(i int) (string, error) {
					pred, _, err := cl.Classify(images[i])
					return printClassified(ClassifyResult{Pred: pred, Modeled: cl.Interpreter().LastInvokeStats().Modeled}), err
				}, nil
			}}, func(m *graph.Model) binding[ClassifyResult] { return classification(m, images) }, printClassified),
		bound(taskCase{name: "detection", model: "ssd-mini",
			oracle: func(m *graph.Model, o pipeline.Options) (func(int) (string, error), error) {
				det, err := pipeline.NewDetector(m, o)
				if err != nil {
					return nil, err
				}
				return func(i int) (string, error) {
					scores, boxes, err := det.Detect(cocoImages[i])
					if err != nil {
						return "", err
					}
					return printDetected(DetectResult{Scores: scores, Boxes: boxes}), nil
				}, nil
			}}, func(m *graph.Model) binding[DetectResult] { return detection(m, cocoImages) }, printDetected),
		bound(taskCase{name: "segmentation", model: "deeplab-mini",
			oracle: func(m *graph.Model, o pipeline.Options) (func(int) (string, error), error) {
				sg, err := pipeline.NewSegmenter(m, o)
				if err != nil {
					return nil, err
				}
				return func(i int) (string, error) {
					labels, err := sg.Segment(segs[i].Image)
					return printLabels(labels), err
				}, nil
			}}, func(m *graph.Model) binding[[]int32] { return segmentation(m, segs) }, printLabels),
		bound(taskCase{name: "speech", model: "kws-mini-a",
			oracle: func(m *graph.Model, o pipeline.Options) (func(int) (string, error), error) {
				sr, err := pipeline.NewSpeechRecognizer(m, o)
				if err != nil {
					return nil, err
				}
				return func(i int) (string, error) {
					pred, _, err := sr.Recognize(waves[i].Wave)
					return printClassified(ClassifyResult{Pred: pred, Modeled: sr.Interpreter().LastInvokeStats().Modeled}), err
				}, nil
			}}, func(m *graph.Model) binding[ClassifyResult] { return speech(m, waves) }, printClassified),
		bound(taskCase{name: "text", model: "nnlm-mini",
			oracle: func(m *graph.Model, o pipeline.Options) (func(int) (string, error), error) {
				tc, err := pipeline.NewTextClassifier(m, datasets.TokenizeText, o)
				if err != nil {
					return nil, err
				}
				return func(i int) (string, error) {
					pred, _, err := tc.ClassifyText(reviews[i].Text)
					return printClassified(ClassifyResult{Pred: pred, Modeled: tc.Interpreter().LastInvokeStats().Modeled}), err
				}, nil
			}}, func(m *graph.Model) binding[ClassifyResult] { return text(m, reviews) }, printClassified),
	}
}

// firstDiff names the first record at which two logs differ, wall-clock
// latency values masked; "" when they are equal record for record.
func firstDiff(got, want *core.Log) string {
	normalizeWallClock(got)
	normalizeWallClock(want)
	for i := 0; i < len(got.Records) && i < len(want.Records); i++ {
		if g, w := got.Records[i], want.Records[i]; !reflect.DeepEqual(g, w) {
			return fmt.Sprintf("record %d: got %q (frame %d, seq %d), want %q (frame %d, seq %d)",
				i, g.Key, g.Frame, g.Seq, w.Key, w.Frame, w.Seq)
		}
	}
	if len(got.Records) != len(want.Records) {
		return fmt.Sprintf("%d records, want %d", len(got.Records), len(want.Records))
	}
	return ""
}

// TestReplayDeterminism is the determinism contract of every replay
// binding, in one table: each task × {frame at a time, batch 4 — the batched
// replica where the task has one, dispatch batching where it does not} ×
// {single device, three-device round-robin fleet of unlike profiles} ×
// workers {1, 3}. The merged log must equal, record for record (wall-clock
// values masked), the log of one monitor shared by plain pipelines run
// sequentially — each frame through the pipeline of the device the shard
// policy gave it — and onFrame must report the results those pipelines
// returned. Every replay also streams through JSONL sinks, which must
// receive exactly the in-memory shard logs: with one worker the collector
// encodes, with three the workers pre-encode, and `go test -cpu 1,4` runs
// both on one core and on several. And every replay runs twice more with the
// in-memory log discarded — the shards then lend their captures and recycle
// them, scribbled, behind the sink — streaming JSONL and MLXB, which must be
// Log.Write of the in-memory shard logs. (One replay feeds both formats, so
// the collector encodes whatever the worker count; the runner's
// TestReplayStreamingSink has the lent pre-encoding replay.)
func TestReplayDeterminism(t *testing.T) {
	scribbleRecycled(t)
	profiles := []*device.Profile{device.Pixel4(), device.Pixel3(), device.EmulatorX86()}
	for _, tc := range taskCases() {
		entry, err := zoo.Get(tc.model)
		if err != nil {
			t.Fatal(err)
		}
		for _, batch := range []int{1, 4} {
			for _, fleet := range []bool{false, true} {
				for _, workers := range []int{1, 3} {
					name := fmt.Sprintf("%s/batch=%d/fleet=%v/workers=%d", tc.name, batch, fleet, workers)
					t.Run(name, func(t *testing.T) {
						popts := pipeline.Options{Resolver: ops.NewOptimized(ops.Fixed())}
						devs := profiles
						if !fleet {
							devs = profiles[:1]
						}
						sinks := make([]*core.JSONLSink, len(devs))
						streamed := make([]bytes.Buffer, len(devs))
						for d := range sinks {
							sinks[d] = core.NewJSONLSink(&streamed[d])
						}
						owner := make([]int, tableFrames) // frame -> device index
						results := make([]string, tableFrames)
						var got *core.Log
						var shards []*core.Log
						if fleet {
							f := &runner.Fleet{Policy: runner.RoundRobin{}, MonitorOptions: monOpts}
							for d, p := range devs {
								f.Devices = append(f.Devices, runner.DeviceSpec{Profile: p, Workers: workers, BatchFrames: batch, Sink: sinks[d]})
							}
							res, err := tc.fleet(entry.Mobile, popts, f)
							if err != nil {
								t.Fatal(err)
							}
							got, shards = res.Merged, res.DeviceLogs
							for d, ranges := range res.Assignment {
								for _, r := range ranges {
									for g := r.Start; g < r.End; g++ {
										owner[g] = d
									}
								}
							}
						} else {
							popts.Device = devs[0]
							got, err = tc.single(entry.Mobile, popts, runner.Options{
								Workers: workers, BatchFrames: batch, MonitorOptions: monOpts, Sink: sinks[0]}, results)
							if err != nil {
								t.Fatal(err)
							}
							shards = []*core.Log{got}
						}
						for d, sink := range sinks {
							if err := sink.Flush(); err != nil {
								t.Fatal(err)
							}
							if !bytes.Equal(streamed[d].Bytes(), logBytes(t, shards[d])) {
								t.Errorf("device %d: streamed JSONL differs from its in-memory shard log", d)
							}
						}
						lent := make([]teeSink, len(devs))
						for d := range lent {
							lent[d] = newTeeSink(t)
						}
						if fleet {
							f := &runner.Fleet{Policy: runner.RoundRobin{}, MonitorOptions: monOpts, DiscardLogs: true}
							for d, p := range devs {
								f.Devices = append(f.Devices, runner.DeviceSpec{Profile: p, Workers: workers, BatchFrames: batch, Sink: lent[d]})
							}
							_, err = tc.fleet(entry.Mobile, popts, f)
						} else {
							_, err = tc.single(entry.Mobile, popts, runner.Options{Workers: workers, BatchFrames: batch,
								MonitorOptions: monOpts, Sink: lent[0], DiscardLog: true}, make([]string, tableFrames))
						}
						if err != nil {
							t.Fatal(err)
						}
						for d := range lent {
							lent[d].checkStreams(t, fmt.Sprintf("device %d lent", d), shards[d])
						}

						mon := core.NewMonitor(monOpts...)
						oracles := make([]func(int) (string, error), len(devs))
						for d, p := range devs {
							o := popts
							o.Monitor, o.Device = mon, p
							if oracles[d], err = tc.oracle(entry.Mobile, o); err != nil {
								t.Fatal(err)
							}
						}
						for g := 0; g < tableFrames; g++ {
							want, err := oracles[owner[g]](g)
							if err != nil {
								t.Fatal(err)
							}
							if !fleet && results[g] != want {
								t.Errorf("frame %d: onFrame reported %.60s, sequential pipeline %.60s", g, results[g], want)
							}
						}
						if len(got.Records) == 0 {
							t.Fatal("merged log empty")
						}
						if d := firstDiff(got, mon.Log()); d != "" {
							t.Errorf("merged log differs from sequential: %s", d)
						}
					})
				}
			}
		}
	}
}

// TestBatchedReplayMatchesSequential sweeps the batch sizes the table in
// TestReplayDeterminism does not: a batch of 2 (only full batches) and a
// batch larger than the dataset (one short batch, every other lane padded),
// next to batch 1.
func TestBatchedReplayMatchesSequential(t *testing.T) {
	m := testModel(t, false)
	seq := sequentialLog(t, m, pipeline.BugNone, ops.NewReference(ops.Fixed()), nil)
	normalizeWallClock(seq)
	want := logBytes(t, seq)
	if len(want) == 0 {
		t.Fatal("sequential log empty")
	}
	for _, batch := range []int{1, 2, 8} {
		for _, workers := range []int{1, 4} {
			par := batchedLog(t, m, pipeline.BugNone, ops.NewReference(ops.Fixed()), workers, batch, nil)
			normalizeWallClock(par)
			if got := logBytes(t, par); !bytes.Equal(got, want) {
				t.Errorf("batch=%d workers=%d: merged log differs from sequential (%d vs %d bytes)",
					batch, workers, len(got), len(want))
			}
		}
	}
}

// TestBatchedReplayQuantizedMatchesSequential pins the quantized batched
// path — what `edgerun -quant` / `exray -quant` run by default. Rebatching,
// the memoized quant-kernel plans (multipliers, LUTs, requant closures) and
// the dequantizing per-layer capture must all reproduce the sequential
// telemetry byte for byte.
func TestBatchedReplayQuantizedMatchesSequential(t *testing.T) {
	m := testModel(t, true)
	for _, resolver := range []*ops.Resolver{ops.NewOptimized(ops.Historical()), ops.NewReference(ops.Fixed())} {
		seq := sequentialLog(t, m, pipeline.BugNone, resolver, nil)
		normalizeWallClock(seq)
		want := logBytes(t, seq)
		if len(want) == 0 {
			t.Fatal("sequential log empty")
		}
		for _, batch := range []int{2, 8} {
			par := batchedLog(t, m, pipeline.BugNone, resolver, 4, batch, nil)
			normalizeWallClock(par)
			if got := logBytes(t, par); !bytes.Equal(got, want) {
				t.Errorf("%s batch=%d: quantized merged log differs from sequential", resolver.Name(), batch)
			}
		}
	}
}

// TestBatchedReplayModeledLatencyIdentical repeats the determinism check
// with a device latency model attached. Modeled per-layer and per-frame
// latencies are NOT normalized away — the batched engine must project
// batch-1 node costs so these values match the sequential run exactly.
func TestBatchedReplayModeledLatencyIdentical(t *testing.T) {
	dev := device.Pixel4()
	m := testModel(t, false)
	seq := sequentialLog(t, m, pipeline.BugNone, ops.NewOptimized(ops.Fixed()), dev)
	normalizeWallClock(seq)
	want := logBytes(t, seq)

	modeledRecords := 0
	for _, r := range seq.Records {
		if r.Unit == "ns-modeled" || r.Key == core.KeyInferenceModeled {
			modeledRecords++
		}
	}
	if modeledRecords == 0 {
		t.Fatal("sequential log has no modeled-latency records; test would be vacuous")
	}

	for _, batch := range []int{2, 8} {
		par := batchedLog(t, m, pipeline.BugNone, ops.NewOptimized(ops.Fixed()), 4, batch, dev)
		normalizeWallClock(par)
		if got := logBytes(t, par); !bytes.Equal(got, want) {
			t.Errorf("batch=%d: modeled-latency log differs from sequential", batch)
		}
	}
}

// TestBatchedReplayWithBugMatchesSequential covers the injected-bug
// configuration the validation sweeps replay (preprocessing bug + per-layer
// capture): the batched path must reproduce the bugged telemetry too.
func TestBatchedReplayWithBugMatchesSequential(t *testing.T) {
	m := testModel(t, false)
	seq := sequentialLog(t, m, pipeline.BugNormalization, ops.NewOptimized(ops.Fixed()), nil)
	normalizeWallClock(seq)
	want := logBytes(t, seq)
	par := batchedLog(t, m, pipeline.BugNormalization, ops.NewOptimized(ops.Fixed()), 2, 4, nil)
	normalizeWallClock(par)
	if got := logBytes(t, par); !bytes.Equal(got, want) {
		t.Error("bugged batched replay differs from sequential")
	}
}

// TestClassificationUninstrumented pins the accuracy-eval contract: nil
// MonitorOptions replays without telemetry and still reports per-frame
// predictions identical to the instrumented sequential run.
func TestClassificationUninstrumented(t *testing.T) {
	entry, err := zoo.Get("mobilenetv2-mini")
	if err != nil {
		t.Fatal(err)
	}
	samples := datasets.SynthImageNet(5555, testFrames)
	images := make([]*imaging.Image, len(samples))
	labels := make([]int, len(samples))
	for i := range samples {
		images[i] = samples[i].Image
		labels[i] = samples[i].Label
	}

	cl, err := pipeline.NewClassifier(entry.Mobile, pipeline.Options{Resolver: ops.NewOptimized(ops.Fixed())})
	if err != nil {
		t.Fatal(err)
	}
	wantPreds := make([]int, len(images))
	for i, im := range images {
		if wantPreds[i], _, err = cl.Classify(im); err != nil {
			t.Fatal(err)
		}
	}

	for _, batch := range []int{1, 4} {
		preds := make([]int, len(images))
		l, err := Classification(entry.Mobile, pipeline.Options{Resolver: ops.NewOptimized(ops.Fixed())}, images,
			runner.Options{Workers: 4, BatchFrames: batch},
			func(i int, r ClassifyResult) error {
				preds[i] = r.Pred
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if len(l.Records) != 0 {
			t.Errorf("batch=%d: uninstrumented replay logged %d records", batch, len(l.Records))
		}
		for i := range preds {
			if preds[i] != wantPreds[i] {
				t.Errorf("batch=%d frame %d: pred %d, sequential %d", batch, i, preds[i], wantPreds[i])
			}
		}
		if acc, err := metrics.Top1(preds, labels); err != nil || acc < 0 {
			t.Errorf("batch=%d: Top1 = %v, %v", batch, acc, err)
		}
	}
}

// TestInt8LayersBackendInvariant is the whole-model leg of the int8 bit-exact
// contract: every layer output of the quantized mobilenetv2-mini, under the
// historical and under the fixed optimized resolver, is byte-identical
// between the tiled backend's register kernels and the reference backend's
// loop nests — including the bytes the historical depthwise defect corrupts.
func TestInt8LayersBackendInvariant(t *testing.T) {
	m := testModel(t, true)
	for name, cfg := range map[string]ops.Config{"historical": ops.Historical(), "fixed": ops.Fixed()} {
		var ips [2]*interp.Interpreter
		for i, b := range []ops.Backend{ops.BackendTiled, ops.BackendReference} {
			ip, err := interp.New(m, ops.NewOptimized(cfg), interp.WithBackend(b))
			if err != nil {
				t.Fatal(err)
			}
			ips[i] = ip
		}
		rng := rand.New(rand.NewSource(2020))
		in := tensor.New(tensor.F32, 1, m.Meta.InputH, m.Meta.InputW, m.Meta.InputC)
		for frame := 0; frame < 20; frame++ {
			tensor.RandUniform(rng, in, -1, 1)
			for _, ip := range ips {
				if _, err := ip.Run(in); err != nil {
					t.Fatal(err)
				}
			}
			for _, n := range m.Nodes {
				for _, id := range n.Outputs {
					tiled, _ := ips[0].Tensor(id)
					ref, _ := ips[1].Tensor(id)
					if !bytes.Equal(tiled.U, ref.U) || !slices.Equal(tiled.F, ref.F) {
						t.Fatalf("%s kernels, input %d: %s (%v) differs between the tiled and the reference backend", name, frame, n.Name, n.Op)
					}
				}
			}
		}
	}
}

// TestInt8LayersSIMDInvariant is the whole-model leg of the int8 assembly
// contract: every layer output of the quantized mobilenetv2-mini, under the
// historical and under the fixed optimized resolver, is byte-identical between
// the AVX2 int8 tiles and the Go kernels of the tiled backend on 20 random
// inputs — including every byte the historical depthwise defect corrupts.
func TestInt8LayersSIMDInvariant(t *testing.T) {
	if !opsUseAVX2 {
		t.Skip("ops found no usable AVX2: the Go kernels are the only int8 path on this host")
	}
	defer func() { opsUseAVX2 = true }()
	m := testModel(t, true)
	for name, cfg := range map[string]ops.Config{"historical": ops.Historical(), "fixed": ops.Fixed()} {
		var ips [2]*interp.Interpreter // one per path: each caches its own plans
		for i := range ips {
			ip, err := interp.New(m, ops.NewOptimized(cfg))
			if err != nil {
				t.Fatal(err)
			}
			ips[i] = ip
		}
		rng := rand.New(rand.NewSource(2037))
		in := tensor.New(tensor.F32, 1, m.Meta.InputH, m.Meta.InputW, m.Meta.InputC)
		for frame := 0; frame < 20; frame++ {
			tensor.RandUniform(rng, in, -1, 1)
			for i, ip := range ips {
				opsUseAVX2 = i == 0
				if _, err := ip.Run(in); err != nil {
					t.Fatal(err)
				}
			}
			for _, n := range m.Nodes {
				for _, id := range n.Outputs {
					asm, _ := ips[0].Tensor(id)
					pure, _ := ips[1].Tensor(id)
					if !bytes.Equal(asm.U, pure.U) || !slices.Equal(asm.F, pure.F) {
						t.Fatalf("%s kernels, input %d: %s (%v) differs between the AVX2 tiles and the Go kernels", name, frame, n.Name, n.Op)
					}
				}
			}
		}
	}
}

// TestFloatLayersSIMDInvariant is the whole-model leg of the float assembly
// contract: every layer output of float mobilenetv2-mini is bit-identical
// between the AVX2 tiles and the Go kernels of the tiled backend, on 20 random
// inputs at batch 1 and once on the batch-8 graph.
func TestFloatLayersSIMDInvariant(t *testing.T) {
	if !opsUseAVX2 {
		t.Skip("ops found no usable AVX2: the Go kernels are the only float path on this host")
	}
	defer func() { opsUseAVX2 = true }()
	base := testModel(t, false)
	batch8, err := graph.Rebatch(base, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2024))
	for _, tc := range []struct {
		m      *graph.Model
		frames int
	}{{base, 20}, {batch8, 1}} {
		m := tc.m
		var ips [2]*interp.Interpreter // one per path: each caches its own plans
		for i := range ips {
			ip, err := interp.New(m, ops.NewOptimized(ops.Fixed()))
			if err != nil {
				t.Fatal(err)
			}
			ips[i] = ip
		}
		in := tensor.New(tensor.F32, m.Tensors[m.Inputs[0]].Shape...)
		for frame := 0; frame < tc.frames; frame++ {
			tensor.RandUniform(rng, in, -1, 1)
			for i, ip := range ips {
				opsUseAVX2 = i == 0
				if _, err := ip.Run(in); err != nil {
					t.Fatal(err)
				}
			}
			for _, n := range m.Nodes {
				for _, id := range n.Outputs {
					asm, _ := ips[0].Tensor(id)
					pure, _ := ips[1].Tensor(id)
					for j, v := range asm.F {
						if math.Float32bits(v) != math.Float32bits(pure.F[j]) {
							t.Fatalf("batch %d, input %d: %s (%v) output %d is %v on the AVX2 tiles, %v on the Go kernels",
								in.Shape[0], frame, n.Name, n.Op, j, v, pure.F[j])
						}
					}
				}
			}
		}
	}
}
