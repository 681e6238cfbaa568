package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTop1(t *testing.T) {
	acc, err := Top1([]int{1, 2, 3, 4}, []int{1, 2, 0, 4})
	if err != nil || acc != 0.75 {
		t.Errorf("Top1 = %v, %v", acc, err)
	}
	if _, err := Top1([]int{1}, []int{1, 2}); err == nil {
		t.Error("accepted length mismatch")
	}
	if _, err := Top1(nil, nil); err == nil {
		t.Error("accepted empty input")
	}
}

func TestTopK(t *testing.T) {
	scores := [][]float32{
		{0.1, 0.5, 0.4}, // top2: classes 1, 2
		{0.7, 0.2, 0.1}, // top2: classes 0, 1
	}
	acc, err := TopK(scores, []int{2, 1}, 2)
	if err != nil || acc != 1 {
		t.Errorf("Top2 = %v, %v", acc, err)
	}
	acc, err = TopK(scores, []int{2, 1}, 1)
	if err != nil || acc != 0 {
		t.Errorf("Top1-via-TopK = %v, %v", acc, err)
	}
}

// Property: Top1 <= TopK for any k >= 1.
func TestTopKMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		scores := [][]float32{{0.2, 0.3, 0.5}, {0.6, 0.3, 0.1}, {0.1, 0.8, 0.1}}
		labels := []int{int(seed) & 1, (int(seed) >> 1) % 3, (int(seed) >> 2) % 3}
		if labels[0] < 0 {
			labels[0] = 0
		}
		a1, err := TopK(scores, labels, 1)
		if err != nil {
			return false
		}
		a2, err := TopK(scores, labels, 2)
		if err != nil {
			return false
		}
		return a2 >= a1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMeanAPPerfectDetections(t *testing.T) {
	gt := [][]GTBox{
		{{Box: [4]float64{0.5, 0.5, 0.2, 0.2}, Class: 1}},
		{{Box: [4]float64{0.3, 0.3, 0.2, 0.2}, Class: 2}},
	}
	dets := []DetBox{
		{Box: [4]float64{0.5, 0.5, 0.2, 0.2}, Class: 1, Score: 0.9, Image: 0},
		{Box: [4]float64{0.3, 0.3, 0.2, 0.2}, Class: 2, Score: 0.8, Image: 1},
	}
	ap, err := MeanAP(dets, gt, 3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ap-1) > 1e-9 {
		t.Errorf("perfect mAP = %v", ap)
	}
}

func TestMeanAPMissesAndFalsePositives(t *testing.T) {
	gt := [][]GTBox{
		{{Box: [4]float64{0.5, 0.5, 0.2, 0.2}, Class: 1}, {Box: [4]float64{0.8, 0.8, 0.1, 0.1}, Class: 1}},
	}
	// One true positive, one false positive far away; one GT missed.
	dets := []DetBox{
		{Box: [4]float64{0.5, 0.5, 0.2, 0.2}, Class: 1, Score: 0.9, Image: 0},
		{Box: [4]float64{0.1, 0.1, 0.1, 0.1}, Class: 1, Score: 0.8, Image: 0},
	}
	ap, err := MeanAP(dets, gt, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if ap <= 0.2 || ap >= 0.8 {
		t.Errorf("partial mAP = %v, want mid-range", ap)
	}
	// No detections at all: mAP 0.
	ap, err = MeanAP(nil, gt, 2, 0.5)
	if err != nil || ap != 0 {
		t.Errorf("no-detection mAP = %v, %v", ap, err)
	}
	if _, err := MeanAP(dets, [][]GTBox{{}}, 2, 0.5); err == nil {
		t.Error("accepted ground truth with no boxes")
	}
}

func TestMeanAPDuplicateDetectionsPenalized(t *testing.T) {
	gt := [][]GTBox{{{Box: [4]float64{0.5, 0.5, 0.2, 0.2}, Class: 1}}}
	one := []DetBox{{Box: [4]float64{0.5, 0.5, 0.2, 0.2}, Class: 1, Score: 0.9, Image: 0}}
	dup := append(one, DetBox{Box: [4]float64{0.5, 0.5, 0.2, 0.2}, Class: 1, Score: 0.8, Image: 0})
	apOne, _ := MeanAP(one, gt, 2, 0.5)
	apDup, _ := MeanAP(dup, gt, 2, 0.5)
	if apDup > apOne {
		t.Errorf("duplicate detections should not raise AP (%v vs %v)", apDup, apOne)
	}
}

func TestMeanIoU(t *testing.T) {
	pred := []int32{0, 0, 1, 1, 2, 2}
	gt := []int32{0, 0, 1, 1, 2, 2}
	iou, err := MeanIoU(pred, gt, 3)
	if err != nil || iou != 1 {
		t.Errorf("perfect mIoU = %v, %v", iou, err)
	}
	pred = []int32{0, 0, 0, 0, 0, 0}
	iou, err = MeanIoU(pred, gt, 3)
	if err != nil {
		t.Fatal(err)
	}
	// class0: inter 2 / union 6 = 1/3; classes 1,2: 0.
	if math.Abs(iou-1.0/9.0) > 1e-9 {
		t.Errorf("all-background mIoU = %v", iou)
	}
	if _, err := MeanIoU([]int32{0}, []int32{0, 1}, 2); err == nil {
		t.Error("accepted length mismatch")
	}
	if _, err := MeanIoU([]int32{5}, []int32{0}, 2); err == nil {
		t.Error("accepted out-of-range label")
	}
}

func TestAgreement(t *testing.T) {
	a, err := Agreement([]int{1, 2}, []int{1, 3})
	if err != nil || a != 0.5 {
		t.Errorf("Agreement = %v, %v", a, err)
	}
}
