package pipeline

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"mlexray/internal/core"
	"mlexray/internal/graph"
	"mlexray/internal/imaging"
	"mlexray/internal/models"
	"mlexray/internal/ops"
)

func randomImage(rng *rand.Rand, w, h, c int) *imaging.Image {
	im := imaging.NewImage(w, h, c)
	rng.Read(im.Pix)
	return im
}

// scratchTask runs images through one kind of image pipeline. run returns
// what the pipeline returned for the images, one entry per image.
type scratchTask struct {
	name  string
	model *graph.Model
	batch int // images per call; 1 for the frame-at-a-time pipelines
	build func(m *graph.Model, opts Options) (run func(ims []*imaging.Image) ([]any, error), err error)
}

func scratchTasks() []scratchTask {
	return []scratchTask{
		{"classifier", models.MobileNetV1Mini(99), 1, func(m *graph.Model, opts Options) (func([]*imaging.Image) ([]any, error), error) {
			p, err := NewClassifier(m, opts)
			return func(ims []*imaging.Image) ([]any, error) {
				pred, scores, err := p.Classify(ims[0])
				return []any{[]any{pred, scores}}, err
			}, err
		}},
		{"detector", models.SSDMini(99), 1, func(m *graph.Model, opts Options) (func([]*imaging.Image) ([]any, error), error) {
			p, err := NewDetector(m, opts)
			return func(ims []*imaging.Image) ([]any, error) {
				scores, boxes, err := p.Detect(ims[0])
				return []any{[]any{scores, boxes}}, err
			}, err
		}},
		{"segmenter", models.DeepLabMini(99), 1, func(m *graph.Model, opts Options) (func([]*imaging.Image) ([]any, error), error) {
			p, err := NewSegmenter(m, opts)
			return func(ims []*imaging.Image) ([]any, error) {
				labels, err := p.Segment(ims[0])
				return []any{labels}, err
			}, err
		}},
		{"batch-classifier", models.MobileNetV1Mini(99), 3, func(m *graph.Model, opts Options) (func([]*imaging.Image) ([]any, error), error) {
			p, err := NewBatchClassifier(m, 3, opts)
			return func(ims []*imaging.Image) ([]any, error) {
				preds, err := p.ClassifyBatch(ims)
				out := make([]any, len(preds))
				for i, pred := range preds {
					out[i] = pred
				}
				return out, err
			}, err
		}},
	}
}

// frameCapture is what one frame left behind: the pipeline's return value
// and the payloads of its preprocessing and model-output records.
type frameCapture struct {
	result          any
	preproc, output []byte
}

// runCaptured runs the images through run in calls of up to batch images and
// returns each frame's capture from mon's log.
func runCaptured(t *testing.T, mon *core.Monitor, run func([]*imaging.Image) ([]any, error), batch int, ims []*imaging.Image) []frameCapture {
	t.Helper()
	var out []frameCapture
	for len(ims) > 0 {
		k := min(batch, len(ims))
		results, err := run(ims[:k])
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			out = append(out, frameCapture{result: r})
		}
		ims = ims[k:]
	}
	for i := range out {
		for _, r := range mon.Log().ByFrame(i + 1) {
			switch {
			case r.Key == core.KeyPreprocessOutput && r.Kind == core.KindTensor:
				out[i].preproc = r.Payload
			case r.Key == core.KeyModelOutput && r.Kind == core.KindTensor:
				out[i].output = r.Payload
			}
		}
		if len(out[i].preproc) == 0 || len(out[i].output) == 0 {
			t.Fatalf("frame %d: no full preprocess/model output capture", i+1)
		}
	}
	return out
}

func fullCaptureOpts(bug Bug) (Options, *core.Monitor) {
	mon := core.NewMonitor(core.WithCaptureMode(core.CaptureFull))
	return Options{Resolver: ops.NewOptimized(ops.Fixed()), Monitor: mon, Bug: bug}, mon
}

// A pipeline reuses its resized image, resize tables and input tensor from
// frame to frame. Nothing of one frame may reach the next: over a sequence
// of different images — the source size changing mid-sequence, one frame
// already at the model's size — every frame's captured preprocessing output,
// captured model output and returned result equal those of a fresh pipeline
// given that image alone.
func TestScratchReuseMatchesFreshPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, task := range scratchTasks() {
		for _, bug := range []Bug{BugNone, BugResize, BugChannel, BugRotation} {
			t.Run(fmt.Sprintf("%s/%s", task.name, bug), func(t *testing.T) {
				meta := task.model.Meta
				ims := []*imaging.Image{
					randomImage(rng, 64, 64, 3),
					randomImage(rng, 64, 64, 3),
					randomImage(rng, 80, 48, 3),
					randomImage(rng, 64, 64, 3),
					randomImage(rng, meta.InputW, meta.InputH, 3),
					randomImage(rng, 17, 90, 3),
					randomImage(rng, 64, 64, 3),
				}
				opts, mon := fullCaptureOpts(bug)
				run, err := task.build(task.model, opts)
				if err != nil {
					t.Fatal(err)
				}
				reused := runCaptured(t, mon, run, task.batch, ims)
				for i, im := range ims {
					opts, mon := fullCaptureOpts(bug)
					run, err := task.build(task.model, opts)
					if err != nil {
						t.Fatal(err)
					}
					fresh := runCaptured(t, mon, run, task.batch, []*imaging.Image{im})[0]
					if !bytes.Equal(reused[i].preproc, fresh.preproc) {
						t.Errorf("frame %d (%dx%d): preprocess_output differs from a fresh pipeline's", i+1, im.W, im.H)
					}
					if !bytes.Equal(reused[i].output, fresh.output) {
						t.Errorf("frame %d (%dx%d): model output differs from a fresh pipeline's", i+1, im.W, im.H)
					}
					if !reflect.DeepEqual(reused[i].result, fresh.result) {
						t.Errorf("frame %d (%dx%d): result %v, fresh pipeline %v", i+1, im.W, im.H, reused[i].result, fresh.result)
					}
				}
			})
		}
	}
}

// An image whose channel count is not the model's is the interpreter's shape
// error, on the frame and the batched path alike — not a panic, not a frame
// run on the previous image's data — and the pipeline works afterwards.
func TestScratchChannelMismatchIsAnError(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, task := range scratchTasks() {
		t.Run(task.name, func(t *testing.T) {
			opts, mon := fullCaptureOpts(BugNone)
			run, err := task.build(task.model, opts)
			if err != nil {
				t.Fatal(err)
			}
			first, gray, after := randomImage(rng, 64, 64, 3), randomImage(rng, 64, 64, 1), randomImage(rng, 64, 64, 3)
			runCaptured(t, mon, run, task.batch, []*imaging.Image{first})
			bad := []*imaging.Image{gray}
			if task.batch > 1 {
				bad = []*imaging.Image{first, gray}
			}
			if _, err := run(bad); err == nil || !strings.Contains(err.Error(), "interp: input 0 shape") {
				t.Fatalf("%d-channel image: err = %v, want the interpreter's input shape error", gray.C, err)
			}

			// The failed call may have opened frames on the monitor; compare
			// the next good frame through fresh monitors on both sides.
			opts2, mon2 := fullCaptureOpts(BugNone)
			fresh, err := task.build(task.model, opts2)
			if err != nil {
				t.Fatal(err)
			}
			want := runCaptured(t, mon2, fresh, task.batch, []*imaging.Image{after})[0]
			got, err := run([]*imaging.Image{after})
			if err != nil {
				t.Fatalf("pipeline unusable after the mismatch: %v", err)
			}
			if !reflect.DeepEqual(got[0], want.result) {
				t.Errorf("after the mismatch: result %v, fresh pipeline %v", got[0], want.result)
			}
			var last []byte
			for _, r := range mon.Log().ByKey(core.KeyPreprocessOutput) {
				last = r.Payload
			}
			if !bytes.Equal(last, want.preproc) {
				t.Error("after the mismatch: preprocess_output differs from a fresh pipeline's")
			}
		})
	}
}

// Steady-state uninstrumented Classify allocates only the scores it returns:
// the output clone's Tensor header, shape and ten float32s — 3 allocations,
// 192 bytes — against 12.4 KiB a frame when the resized image and the input
// tensor were allocated per frame.
func TestClassifySteadyStateAllocs(t *testing.T) {
	cl, err := NewClassifier(models.MobileNetV1Mini(99), Options{Resolver: ops.NewOptimized(ops.Fixed())})
	if err != nil {
		t.Fatal(err)
	}
	im := randomImage(rand.New(rand.NewSource(41)), 64, 64, 3)
	classify := func() {
		if _, _, err := cl.Classify(im); err != nil {
			t.Fatal(err)
		}
	}
	classify() // builds the scratch
	if n := testing.AllocsPerRun(50, classify); n != 3 {
		t.Errorf("steady-state Classify: %v allocations per frame, want 3 (the output clone)", n)
	}
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		classify()
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / runs; b > 192 {
		t.Errorf("steady-state Classify: %d bytes per frame, want at most 192", b)
	}
}

// Steady-state uninstrumented Predict allocates nothing — it is Classify
// without the output clone — and names the same class Classify does.
func TestPredictSteadyStateAllocs(t *testing.T) {
	m := models.MobileNetV1Mini(99)
	opts := Options{Resolver: ops.NewOptimized(ops.Fixed())}
	pr, err := NewClassifier(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewClassifier(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(47))
	for i := 0; i < 50; i++ {
		im := randomImage(rng, 64, 64, 3)
		got, err := pr.Predict(im)
		if err != nil {
			t.Fatal(err)
		}
		want, scores, err := cl.Classify(im)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || got != scores.ArgMax() {
			t.Fatalf("image %d: Predict %d, Classify %d (scores argmax %d)", i, got, want, scores.ArgMax())
		}
	}
	im := randomImage(rng, 64, 64, 3)
	if n := testing.AllocsPerRun(50, func() {
		if _, err := pr.Predict(im); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("steady-state Predict: %v allocations per frame, want 0", n)
	}
}

var preprocessSink any

// BenchmarkPreprocessImage is image preprocessing on the benchmark's frame,
// 64×64×3 to the classifier's input: through the allocating PreprocessImage,
// and through the storage a pipeline owns.
func BenchmarkPreprocessImage(b *testing.B) {
	m := models.MobileNetV1Mini(99)
	pp, err := CorrectImagePreproc(m.Meta)
	if err != nil {
		b.Fatal(err)
	}
	im := randomImage(rand.New(rand.NewSource(43)), 64, 64, 3)
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			preprocessSink = PreprocessImage(im, m.Meta, pp)
		}
	})
	b.Run("owned", func(b *testing.B) {
		p := newPreprocessor(m.Meta, pp)
		in := p.run(nil, im)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			in = p.run(in, im)
		}
	})
}
