package pipeline

import (
	"testing"
	"time"

	"mlexray/internal/core"
	"mlexray/internal/datasets"
	"mlexray/internal/device"
	"mlexray/internal/imaging"
	"mlexray/internal/models"
	"mlexray/internal/ops"
)

// TestClassifierCloneIndependence: a clone owns its own interpreter and
// monitor, predicts identically to its parent, and logs only to its own
// shard.
func TestClassifierCloneIndependence(t *testing.T) {
	m := models.MobileNetV1Mini(99)
	monA := core.NewMonitor()
	base, err := NewClassifier(m, Options{Resolver: ops.NewOptimized(ops.Fixed()), Monitor: monA})
	if err != nil {
		t.Fatal(err)
	}
	monB := core.NewMonitor()
	clone, err := base.Clone(monB)
	if err != nil {
		t.Fatal(err)
	}
	if clone.Interpreter() == base.Interpreter() {
		t.Fatal("clone shares the parent's interpreter")
	}
	s := datasets.SynthImageNet(5555, 1)[0]
	pBase, _, err := base.Classify(s.Image)
	if err != nil {
		t.Fatal(err)
	}
	pClone, _, err := clone.Classify(s.Image)
	if err != nil {
		t.Fatal(err)
	}
	if pBase != pClone {
		t.Errorf("clone predicted %d, parent %d", pClone, pBase)
	}
	if na, nb := len(monA.Log().Records), len(monB.Log().Records); na != nb || nb == 0 {
		t.Errorf("shard logs diverge: parent=%d clone=%d", na, nb)
	}
}

// TestBatchClassifierPlansOptionsBackend: the batched pipeline plans the
// kernel backend its options name, like the frame-at-a-time one. Modeled
// latency is the deterministic witness — the backend's cost factors move it.
func TestBatchClassifierPlansOptionsBackend(t *testing.T) {
	m := models.MobileNetV1Mini(99)
	im := datasets.SynthImageNet(5555, 1)[0].Image
	modeled := map[ops.Backend]time.Duration{}
	for _, b := range ops.Backends() {
		opts := Options{Resolver: ops.NewOptimized(ops.Fixed()), Device: device.Pixel4(), Backend: b}
		seq, err := NewClassifier(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := seq.Classify(im); err != nil {
			t.Fatal(err)
		}
		bat, err := NewBatchClassifier(m, 2, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := bat.ClassifyBatch([]*imaging.Image{im}); err != nil {
			t.Fatal(err)
		}
		modeled[b] = bat.Interpreter().FrameStats().Modeled
		if want := seq.Interpreter().LastInvokeStats().Modeled; modeled[b] != want {
			t.Errorf("%s: batched frame modeled %v, frame-at-a-time %v", b, modeled[b], want)
		}
	}
	if modeled[ops.BackendTiled] >= modeled[ops.BackendReference] {
		t.Errorf("modeled latency tiled %v, reference %v: Options.Backend is inert on the batched path",
			modeled[ops.BackendTiled], modeled[ops.BackendReference])
	}
}
