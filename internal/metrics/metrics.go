// Package metrics implements the task-quality measures of the evaluation:
// top-1/top-k accuracy, detection mAP (greedy IoU matching with 11-point
// interpolated average precision) and segmentation mIoU.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Top1 returns the fraction of predictions matching labels.
func Top1(preds, labels []int) (float64, error) {
	if len(preds) != len(labels) {
		return 0, fmt.Errorf("metrics: %d predictions vs %d labels", len(preds), len(labels))
	}
	if len(preds) == 0 {
		return 0, fmt.Errorf("metrics: empty evaluation")
	}
	hit := 0
	for i := range preds {
		if preds[i] == labels[i] {
			hit++
		}
	}
	return float64(hit) / float64(len(preds)), nil
}

// TopK returns the fraction of samples whose label appears in the sample's
// top-k scored classes. scores is [n][classes].
func TopK(scores [][]float32, labels []int, k int) (float64, error) {
	if len(scores) != len(labels) {
		return 0, fmt.Errorf("metrics: %d score rows vs %d labels", len(scores), len(labels))
	}
	if len(scores) == 0 || k < 1 {
		return 0, fmt.Errorf("metrics: empty evaluation or k=%d", k)
	}
	hit := 0
	for i, row := range scores {
		type sc struct {
			c int
			v float32
		}
		order := make([]sc, len(row))
		for c, v := range row {
			order[c] = sc{c, v}
		}
		sort.Slice(order, func(a, b int) bool { return order[a].v > order[b].v })
		for j := 0; j < k && j < len(order); j++ {
			if order[j].c == labels[i] {
				hit++
				break
			}
		}
	}
	return float64(hit) / float64(len(scores)), nil
}

// Agreement returns the fraction of positions where two prediction slices
// agree — the validator's output-consistency measure between an edge
// pipeline and its reference.
func Agreement(a, b []int) (float64, error) {
	return Top1(a, b)
}

// GTBox is a ground-truth detection box for mAP evaluation.
type GTBox struct {
	Box   [4]float64 // cy, cx, h, w normalized
	Class int
}

// DetBox is one predicted detection for mAP evaluation.
type DetBox struct {
	Box   [4]float64
	Class int
	Score float64
	Image int // image index
}

// MeanAP computes mean average precision over foreground classes at the
// given IoU threshold, using 11-point interpolation (the PASCAL convention).
// gt is indexed per image.
func MeanAP(dets []DetBox, gt [][]GTBox, numClasses int, iouThresh float64) (float64, error) {
	if numClasses < 2 {
		return 0, fmt.Errorf("metrics: %d classes", numClasses)
	}
	var sumAP float64
	classesWithGT := 0
	for c := 1; c < numClasses; c++ {
		ap, hasGT := classAP(dets, gt, c, iouThresh)
		if hasGT {
			sumAP += ap
			classesWithGT++
		}
	}
	if classesWithGT == 0 {
		return 0, fmt.Errorf("metrics: no ground truth boxes")
	}
	return sumAP / float64(classesWithGT), nil
}

func classAP(dets []DetBox, gt [][]GTBox, class int, iouThresh float64) (float64, bool) {
	// Collect class detections sorted by score, and count class GT.
	var cls []DetBox
	for _, d := range dets {
		if d.Class == class {
			cls = append(cls, d)
		}
	}
	sort.Slice(cls, func(i, j int) bool { return cls[i].Score > cls[j].Score })
	totalGT := 0
	matched := make([][]bool, len(gt))
	for i, boxes := range gt {
		matched[i] = make([]bool, len(boxes))
		for _, g := range boxes {
			if g.Class == class {
				totalGT++
			}
		}
	}
	if totalGT == 0 {
		return 0, false
	}
	tp := make([]int, len(cls))
	for di, d := range cls {
		if d.Image < 0 || d.Image >= len(gt) {
			continue
		}
		bestIoU, bestG := 0.0, -1
		for gi, g := range gt[d.Image] {
			if g.Class != class || matched[d.Image][gi] {
				continue
			}
			if iou := boxIoU(d.Box, g.Box); iou > bestIoU {
				bestIoU, bestG = iou, gi
			}
		}
		if bestG >= 0 && bestIoU >= iouThresh {
			tp[di] = 1
			matched[d.Image][bestG] = true
		}
	}
	// Precision/recall curve.
	var cumTP, cumFP int
	precision := make([]float64, len(cls))
	recall := make([]float64, len(cls))
	for i := range cls {
		if tp[i] == 1 {
			cumTP++
		} else {
			cumFP++
		}
		precision[i] = float64(cumTP) / float64(cumTP+cumFP)
		recall[i] = float64(cumTP) / float64(totalGT)
	}
	// 11-point interpolation.
	var ap float64
	for _, r := range []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0} {
		var pMax float64
		for i := range cls {
			if recall[i] >= r && precision[i] > pMax {
				pMax = precision[i]
			}
		}
		ap += pMax / 11
	}
	return ap, true
}

func boxIoU(a, b [4]float64) float64 {
	ay0, ay1 := a[0]-a[2]/2, a[0]+a[2]/2
	ax0, ax1 := a[1]-a[3]/2, a[1]+a[3]/2
	by0, by1 := b[0]-b[2]/2, b[0]+b[2]/2
	bx0, bx1 := b[1]-b[3]/2, b[1]+b[3]/2
	iy := math.Min(ay1, by1) - math.Max(ay0, by0)
	ix := math.Min(ax1, bx1) - math.Max(ax0, bx0)
	if iy <= 0 || ix <= 0 {
		return 0
	}
	inter := iy * ix
	union := a[2]*a[3] + b[2]*b[3] - inter
	if union <= 0 {
		return 0
	}
	return inter / union
}

// MeanIoU computes segmentation mean intersection-over-union across classes
// present in the ground truth. pred and gt are flat label maps.
func MeanIoU(pred, gt []int32, numClasses int) (float64, error) {
	if len(pred) != len(gt) {
		return 0, fmt.Errorf("metrics: %d predictions vs %d labels", len(pred), len(gt))
	}
	inter := make([]int, numClasses)
	union := make([]int, numClasses)
	seen := make([]bool, numClasses)
	for i := range gt {
		p, g := pred[i], gt[i]
		if int(g) >= numClasses || g < 0 || int(p) >= numClasses || p < 0 {
			return 0, fmt.Errorf("metrics: label out of range (pred %d, gt %d)", p, g)
		}
		seen[g] = true
		if p == g {
			inter[g]++
			union[g]++
		} else {
			union[g]++
			union[p]++
		}
	}
	var sum float64
	n := 0
	for c := 0; c < numClasses; c++ {
		if !seen[c] {
			continue
		}
		if union[c] > 0 {
			sum += float64(inter[c]) / float64(union[c])
		}
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("metrics: no classes in ground truth")
	}
	return sum / float64(n), nil
}
