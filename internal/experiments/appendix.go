package experiments

import (
	"fmt"
	"io"

	"mlexray/internal/datasets"
	"mlexray/internal/graph"
	"mlexray/internal/imaging"
	"mlexray/internal/interp"
	"mlexray/internal/metrics"
	"mlexray/internal/models"
	"mlexray/internal/pipeline"
	"mlexray/internal/replay"
	"mlexray/internal/tensor"
	"mlexray/internal/zoo"
)

// ---- §A text invariance: embeddings diverge, accuracy does not ----

// AppendixTextRow is one text model's case-folding result: the per-example
// embedding drift between cased and lowercased inputs, versus accuracy under
// both.
type AppendixTextRow struct {
	Model          string
	EmbeddingNRMSE float64
	AccuracyCased  float64
	AccuracyFolded float64
}

// AppendixText reproduces the appendix observation: lowercasing the input
// changes the NNLM embeddings drastically, yet sentiment accuracy is
// unchanged — per-layer drift does not always imply task damage, which is
// why the validator checks accuracy first (Fig. 2).
func AppendixText(n int) ([]AppendixTextRow, error) {
	if n <= 0 {
		n = 80
	}
	samples := datasets.SynthIMDB(5557, n)
	var rows []AppendixTextRow
	for _, name := range []string{"nnlm-mini", "mobilebert-mini"} {
		e, err := zoo.Get(name)
		if err != nil {
			return nil, err
		}
		embID, err := e.Mobile.TensorByName("embeddings")
		if err != nil {
			return nil, err
		}
		accuracy := func(bug pipeline.Bug) (float64, error) {
			preds := make([]int, len(samples))
			labels := make([]int, len(samples))
			_, err := replay.Text(e.Mobile, pipeline.Options{Resolver: fixedOptimized(), Bug: bug}, samples,
				sweepOptions(nil), func(i int, r replay.ClassifyResult) error {
					preds[i], labels[i] = r.Pred, samples[i].Label
					return nil
				})
			if err != nil {
				return 0, err
			}
			return metrics.Top1(preds, labels)
		}
		accCased, err := accuracy(pipeline.BugNone)
		if err != nil {
			return nil, err
		}
		accFolded, err := accuracy(pipeline.BugLowercase)
		if err != nil {
			return nil, err
		}
		// Embedding drift measured directly on the interpreter.
		ip, err := interp.New(e.Mobile, fixedOptimized())
		if err != nil {
			return nil, err
		}
		var driftSum float64
		for _, s := range samples[:20] {
			cased := runEmbedding(ip, datasets.TokenizeText(s.Text), embID)
			folded := runEmbedding(ip, datasets.TokenizeText(datasets.LowercaseText(s.Text)), embID)
			d, err := tensor.NormalizedRMSE(folded, cased)
			if err != nil {
				return nil, err
			}
			driftSum += d
		}
		rows = append(rows, AppendixTextRow{
			Model:          name,
			EmbeddingNRMSE: driftSum / 20,
			AccuracyCased:  accCased,
			AccuracyFolded: accFolded,
		})
	}
	return rows, nil
}

func runEmbedding(ip *interp.Interpreter, ids []int32, embID int) *tensor.Tensor {
	in := tensor.FromInt32(ids, 1, len(ids))
	if _, err := ip.Run(in); err != nil {
		return tensor.New(tensor.F32, 1)
	}
	t, err := ip.Tensor(embID)
	if err != nil {
		return tensor.New(tensor.F32, 1)
	}
	return t.Clone()
}

// RenderAppendixText prints the case-folding study.
func RenderAppendixText(w io.Writer, rows []AppendixTextRow) {
	fmt.Fprintf(w, "Appendix A — case folding: embedding drift vs task accuracy\n")
	fmt.Fprintf(w, "%-18s %16s %10s %10s\n", "model", "embedding nRMSE", "cased", "folded")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %16.3f %10.2f %10.2f\n", r.Model, r.EmbeddingNRMSE, r.AccuracyCased, r.AccuracyFolded)
	}
}

// ---- §A in-graph preprocessing (the EfficientDet pattern) ----

// AppendixInGraphRow compares the stock classifier against its in-graph-
// preprocessing variant under app-side bugs.
type AppendixInGraphRow struct {
	Variant  string
	Baseline float64
	Resize   float64
	Norm     float64
}

// AppendixInGraph shows that a model embedding its own preprocessing is
// structurally immune to app-side resize and normalization bugs: the
// in-graph variant's accuracy is identical with or without those bugs, while
// the stock model degrades.
func AppendixInGraph(n int) ([]AppendixInGraphRow, error) {
	if n <= 0 {
		n = EvalFrames
	}
	e, err := zoo.Get("mobilenetv2-mini")
	if err != nil {
		return nil, err
	}
	ing, err := models.WithInGraphPreprocessing(e.Mobile, datasets.ImageNetSize)
	if err != nil {
		return nil, err
	}
	samples := datasets.SynthImageNet(5555, n)

	stock := AppendixInGraphRow{Variant: "app-side preprocessing"}
	if stock.Baseline, err = evalClassifierAccuracy(e.Mobile, pipeline.Options{Resolver: fixedOptimized()}, n); err != nil {
		return nil, err
	}
	if stock.Resize, err = evalClassifierAccuracy(e.Mobile, pipeline.Options{Resolver: fixedOptimized(), Bug: pipeline.BugResize}, n); err != nil {
		return nil, err
	}
	if stock.Norm, err = evalClassifierAccuracy(e.Mobile, pipeline.Options{Resolver: fixedOptimized(), Bug: pipeline.BugNormalization}, n); err != nil {
		return nil, err
	}

	// The in-graph variant takes the raw capture; resize and normalization
	// simply do not exist app-side, so all three conditions coincide.
	ingAcc, err := evalInGraph(ing, samples)
	if err != nil {
		return nil, err
	}
	inRow := AppendixInGraphRow{Variant: "in-graph preprocessing", Baseline: ingAcc, Resize: ingAcc, Norm: ingAcc}
	return []AppendixInGraphRow{stock, inRow}, nil
}

func evalInGraph(m *graph.Model, samples []datasets.ImageSample) (float64, error) {
	ip, err := interp.New(m, fixedOptimized())
	if err != nil {
		return 0, err
	}
	preds := make([]int, len(samples))
	labels := make([]int, len(samples))
	for i, s := range samples {
		in := rawImageTensor(s.Image)
		out, err := ip.Run(in)
		if err != nil {
			return 0, err
		}
		preds[i], labels[i] = out.ArgMax(), s.Label
	}
	return metrics.Top1(preds, labels)
}

// rawImageTensor feeds the raw capture as float 0..255 — the only thing an
// app has to do for an in-graph-preprocessing model.
func rawImageTensor(im *imaging.Image) *tensor.Tensor {
	t := tensor.New(tensor.F32, 1, im.H, im.W, im.C)
	for i, p := range im.Pix {
		t.F[i] = float32(p)
	}
	return t
}

// RenderAppendixInGraph prints the in-graph preprocessing study.
func RenderAppendixInGraph(w io.Writer, rows []AppendixInGraphRow) {
	fmt.Fprintf(w, "Appendix A — in-graph preprocessing immunity (MobileNet-v2)\n")
	fmt.Fprintf(w, "%-26s %9s %8s %8s\n", "variant", "baseline", "resize", "norm")
	for _, r := range rows {
		fmt.Fprintf(w, "%-26s %9.2f %8.2f %8.2f\n", r.Variant, r.Baseline, r.Resize, r.Norm)
	}
}
