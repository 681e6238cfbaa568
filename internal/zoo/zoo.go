// Package zoo trains the miniature model zoo on the synthetic datasets and
// serves the three deployment-path versions of each model (checkpoint,
// mobile, quant). Training is deterministic; trained checkpoints are cached
// in memory per process and on disk across processes (set MLEXRAY_NO_CACHE
// to disable the disk cache).
package zoo

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"math/rand"

	"mlexray/internal/convert"
	"mlexray/internal/datasets"
	"mlexray/internal/graph"
	"mlexray/internal/pipeline"
	"mlexray/internal/tensor"
	"mlexray/internal/train"
)

// cacheVersion invalidates on-disk checkpoints whenever architectures,
// datasets or training schedules change.
const cacheVersion = "v11"

// Entry bundles the deployment-path versions of one trained model.
type Entry struct {
	Name       string
	Checkpoint *graph.Model // trained, training graph
	Mobile     *graph.Model // folded + fused float graph
	Quant      *graph.Model // post-training full-integer graph
}

type spec struct {
	build func(seed int64) *graph.Model
	train func(m *graph.Model) error
	// fullInteger selects full-integer quantization; text models use
	// dynamic-range instead.
	fullInteger bool
}

var specs = map[string]spec{
	"mobilenetv1-mini": {buildCls(modelsV1), trainClassifier, true},
	"mobilenetv2-mini": {buildCls(modelsV2), trainClassifier, true},
	"mobilenetv3-mini": {buildCls(modelsV3), trainClassifier, true},
	"resnet-mini":      {buildCls(modelsResNet), trainClassifier, true},
	"inception-mini":   {buildCls(modelsInception), trainClassifier, true},
	"densenet-mini":    {buildCls(modelsDenseNet), trainClassifier, true},
	"ssd-mini":         {buildCls(modelsSSD), trainDetector, true},
	"frcnn-mini":       {buildCls(modelsFRCNN), trainDetector, true},
	"deeplab-mini":     {buildCls(modelsDeepLab), trainSegmenter, true},
	"kws-mini-a":       {buildKWS("a", "log-global"), trainSpeech, true},
	"kws-mini-b":       {buildKWS("b", "per-utterance"), trainSpeech, true},
	"nnlm-mini":        {buildText(modelsNNLM), trainText, false},
	"mobilebert-mini":  {buildText(modelsBert), trainText, false},
}

// Names returns all zoo model names.
func Names() []string {
	out := make([]string, 0, len(specs))
	for n := range specs {
		out = append(out, n)
	}
	return out
}

// ClassifierNames lists the Figure 4a / Figure 5 classification zoo in
// presentation order.
func ClassifierNames() []string {
	return []string{
		"mobilenetv1-mini", "mobilenetv2-mini", "mobilenetv3-mini",
		"resnet-mini", "inception-mini", "densenet-mini",
	}
}

var (
	mu      sync.Mutex
	entries = map[string]*Entry{}
)

// Get returns the trained Entry for a zoo model, training it on first use.
func Get(name string) (*Entry, error) {
	mu.Lock()
	defer mu.Unlock()
	if e, ok := entries[name]; ok {
		return e, nil
	}
	sp, ok := specs[name]
	if !ok {
		return nil, fmt.Errorf("zoo: unknown model %q (have %v)", name, Names())
	}
	ck, err := loadOrTrain(name, sp)
	if err != nil {
		return nil, err
	}
	mob, err := convert.Optimize(ck)
	if err != nil {
		return nil, fmt.Errorf("zoo: optimize %s: %w", name, err)
	}
	var q *graph.Model
	if sp.fullInteger {
		calib, err := calibrationInputs(mob)
		if err != nil {
			return nil, err
		}
		q, err = convert.Quantize(mob, calib, convert.DefaultQuantOptions())
		if err != nil {
			return nil, fmt.Errorf("zoo: quantize %s: %w", name, err)
		}
	} else {
		q, err = convert.QuantizeDynamicRange(mob, convert.DefaultQuantOptions())
		if err != nil {
			return nil, fmt.Errorf("zoo: quantize %s: %w", name, err)
		}
	}
	e := &Entry{Name: name, Checkpoint: ck, Mobile: mob, Quant: q}
	entries[name] = e
	return e, nil
}

func cachePath(name string) string {
	return filepath.Join(os.TempDir(), fmt.Sprintf("mlexray-zoo-%s-%s.mlxm", cacheVersion, name))
}

func loadOrTrain(name string, sp spec) (*graph.Model, error) {
	useDisk := os.Getenv("MLEXRAY_NO_CACHE") == ""
	if useDisk {
		if m, err := graph.LoadFile(cachePath(name)); err == nil && m.Name != "" {
			return m, nil
		}
	}
	m := sp.build(zooSeed(name))
	if err := sp.train(m); err != nil {
		return nil, fmt.Errorf("zoo: train %s: %w", name, err)
	}
	if useDisk {
		if err := graph.SaveFile(m, cachePath(name)); err != nil {
			// Disk cache is best-effort.
			_ = os.Remove(cachePath(name))
		}
	}
	return m, nil
}

// zooSeed derives a stable per-model seed.
func zooSeed(name string) int64 {
	var h int64 = 1469598103934665603
	for _, c := range name {
		h ^= int64(c)
		h *= 1099511628211
	}
	if h < 0 {
		h = -h
	}
	return h%100000 + 7
}

// calibrationInputs builds the representative dataset for quantization: a
// handful of correctly preprocessed samples of the model's task.
func calibrationInputs(m *graph.Model) ([]*tensor.Tensor, error) {
	switch m.Meta.Task {
	case "classification", "detection", "segmentation":
		pp, err := pipeline.CorrectImagePreproc(m.Meta)
		if err != nil {
			return nil, err
		}
		var out []*tensor.Tensor
		switch m.Meta.Task {
		case "classification":
			for _, s := range datasets.SynthImageNet(901, 10) {
				out = append(out, pipeline.PreprocessImage(s.Image, m.Meta, pp))
			}
		case "detection":
			for _, s := range datasets.SynthCOCO(902, 8) {
				out = append(out, pipeline.PreprocessImage(s.Image, m.Meta, pp))
			}
		case "segmentation":
			for _, s := range datasets.SynthSegmentation(903, 8) {
				out = append(out, pipeline.PreprocessImage(s.Image, m.Meta, pp))
			}
		}
		return out, nil
	case "speech":
		pp, err := pipeline.CorrectSpeechPreproc(m.Meta)
		if err != nil {
			return nil, err
		}
		var out []*tensor.Tensor
		for _, s := range datasets.SynthSpeech(904, 8) {
			t, err := pipeline.PreprocessSpeech(s.Wave, pp)
			if err != nil {
				return nil, err
			}
			out = append(out, t)
		}
		return out, nil
	}
	return nil, fmt.Errorf("zoo: no calibration data for task %q", m.Meta.Task)
}

// ---- training routines ----

const (
	clsTrainN = 240
	clsBatch  = 24
	clsEpochs = 6
	trainSeed = 1234
)

func trainClassifier(m *graph.Model) error {
	pp, err := pipeline.CorrectImagePreproc(m.Meta)
	if err != nil {
		return err
	}
	samples := datasets.SynthImageNet(trainSeed, clsTrainN)
	cfg := train.DefaultConfig()
	cfg.LR = 0.08
	tr, err := train.New(m, clsBatch, cfg)
	if err != nil {
		return err
	}
	// Contrast/brightness jitter, the standard photometric augmentation:
	// it gives the models partial robustness to normalization shifts (the
	// paper's models "somewhat work" under the [0,1]-vs-[-1,1] bug rather
	// than collapsing outright).
	aug := rand.New(rand.NewSource(trainSeed * 31))
	h, w, c := m.Meta.InputH, m.Meta.InputW, m.Meta.InputC
	for epoch := 0; epoch < clsEpochs; epoch++ {
		for off := 0; off+clsBatch <= len(samples); off += clsBatch {
			batch := tensor.New(tensor.F32, clsBatch, h, w, c)
			labels := make([]int32, clsBatch)
			for i := 0; i < clsBatch; i++ {
				s := samples[off+i]
				t := pipeline.PreprocessImage(s.Image, m.Meta, pp)
				a := float32(0.5 + 1.0*aug.Float64())
				b := float32(-0.4 + 0.8*aug.Float64())
				scale := float32(m.Meta.NormHi-m.Meta.NormLo) / 2
				for j, v := range t.F {
					t.F[j] = a*v + b*scale
				}
				copy(batch.F[i*h*w*c:], t.F)
				labels[i] = int32(s.Label)
			}
			if _, err := tr.Step([]*tensor.Tensor{batch}, train.SoftmaxCE("logits", labels)); err != nil {
				return err
			}
		}
	}
	return tr.ExportInto(m)
}

func trainSpeech(m *graph.Model) error {
	pp, err := pipeline.CorrectSpeechPreproc(m.Meta)
	if err != nil {
		return err
	}
	samples := datasets.SynthSpeech(trainSeed, 192)
	const batch = 24
	cfg := train.DefaultConfig()
	cfg.LR = 0.08
	tr, err := train.New(m, batch, cfg)
	if err != nil {
		return err
	}
	h, w := m.Meta.InputH, m.Meta.InputW
	for epoch := 0; epoch < 6; epoch++ {
		for off := 0; off+batch <= len(samples); off += batch {
			bt := tensor.New(tensor.F32, batch, h, w, 1)
			labels := make([]int32, batch)
			for i := 0; i < batch; i++ {
				s := samples[off+i]
				t, err := pipeline.PreprocessSpeech(s.Wave, pp)
				if err != nil {
					return err
				}
				copy(bt.F[i*h*w:], t.F)
				labels[i] = int32(s.Label)
			}
			if _, err := tr.Step([]*tensor.Tensor{bt}, train.SoftmaxCE("logits", labels)); err != nil {
				return err
			}
		}
	}
	return tr.ExportInto(m)
}

func trainText(m *graph.Model) error {
	samples := datasets.SynthIMDB(trainSeed, 256)
	const batch = 32
	cfg := train.DefaultConfig()
	cfg.LR = 0.1
	cfg.WeightDecay = 0
	tr, err := train.New(m, batch, cfg)
	if err != nil {
		return err
	}
	seq := m.Meta.SeqLen
	for epoch := 0; epoch < 8; epoch++ {
		for off := 0; off+batch <= len(samples); off += batch {
			ids := tensor.New(tensor.I32, batch, seq)
			labels := make([]int32, batch)
			for i := 0; i < batch; i++ {
				s := samples[off+i]
				copy(ids.X[i*seq:], s.Tokens)
				labels[i] = int32(s.Label)
			}
			if _, err := tr.Step([]*tensor.Tensor{ids}, train.SoftmaxCE("logits", labels)); err != nil {
				return err
			}
		}
	}
	return tr.ExportInto(m)
}

func trainSegmenter(m *graph.Model) error {
	pp, err := pipeline.CorrectImagePreproc(m.Meta)
	if err != nil {
		return err
	}
	samples := datasets.SynthSegmentation(trainSeed, 96)
	const batch = 12
	cfg := train.DefaultConfig()
	cfg.LR = 0.08
	tr, err := train.New(m, batch, cfg)
	if err != nil {
		return err
	}
	h, w, c := m.Meta.InputH, m.Meta.InputW, m.Meta.InputC
	for epoch := 0; epoch < 6; epoch++ {
		for off := 0; off+batch <= len(samples); off += batch {
			bt := tensor.New(tensor.F32, batch, h, w, c)
			var labels []int32
			for i := 0; i < batch; i++ {
				s := samples[off+i]
				t := pipeline.PreprocessImage(s.Image, m.Meta, pp)
				copy(bt.F[i*h*w*c:], t.F)
				labels = append(labels, s.Labels...)
			}
			if _, err := tr.Step([]*tensor.Tensor{bt}, train.SoftmaxCE("seg_logits", labels)); err != nil {
				return err
			}
		}
	}
	return tr.ExportInto(m)
}

func trainDetector(m *graph.Model) error {
	pp, err := pipeline.CorrectImagePreproc(m.Meta)
	if err != nil {
		return err
	}
	samples := datasets.SynthCOCO(trainSeed, 192)
	const batch = 16
	cfg := train.DefaultConfig()
	cfg.LR = 0.05
	tr, err := train.New(m, batch, cfg)
	if err != nil {
		return err
	}
	anchors := m.Meta.Anchors
	h, w, c := m.Meta.InputH, m.Meta.InputW, m.Meta.InputC
	for epoch := 0; epoch < 8; epoch++ {
		for off := 0; off+batch <= len(samples); off += batch {
			bt := tensor.New(tensor.F32, batch, h, w, c)
			var clsLabels []int32
			var boxTargets []float32
			for i := 0; i < batch; i++ {
				s := samples[off+i]
				t := pipeline.PreprocessImage(s.Image, m.Meta, pp)
				copy(bt.F[i*h*w*c:], t.F)
				gtBoxes := make([][4]float64, len(s.Boxes))
				gtClasses := make([]int, len(s.Boxes))
				for j, gb := range s.Boxes {
					gtBoxes[j] = [4]float64{gb.CY, gb.CX, gb.H, gb.W}
					gtClasses[j] = gb.Class
				}
				cl, bx := matchAnchors(anchors, gtBoxes, gtClasses)
				clsLabels = append(clsLabels, cl...)
				boxTargets = append(boxTargets, bx...)
			}
			loss := train.SSDLoss("cls_logits", "box_preds", clsLabels, boxTargets, 1.0)
			if _, err := tr.Step([]*tensor.Tensor{bt}, loss); err != nil {
				return err
			}
		}
	}
	return tr.ExportInto(m)
}
