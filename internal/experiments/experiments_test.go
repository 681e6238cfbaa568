package experiments

import (
	"bytes"
	"flag"
	"math"
	"os"
	"strings"
	"testing"

	"mlexray/internal/pipeline"
)

// These tests verify the *shape* of each reproduced result — who wins, by
// roughly what factor, where crossovers fall — per DESIGN.md §3. Absolute
// values are recorded in EXPERIMENTS.md, not asserted.
//
// Under -short the sweeps run with reduced frame counts (the shapes are
// already stable well below the full evaluation size); the full sweep runs
// without -short. All sweeps run on the parallel replay engine either way.

// TestMain shrinks the shared evaluation-set size in short mode before any
// test builds a sweep.
func TestMain(m *testing.M) {
	flag.Parse()
	if testing.Short() {
		EvalFrames = 40
	}
	os.Exit(m.Run())
}

// frames picks the full or the -short frame count for a parameterized sweep.
func frames(full, short int) int {
	if testing.Short() {
		return short
	}
	return full
}

func TestFigure4aShape(t *testing.T) {
	rows, err := Figure4a()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d models", len(rows))
	}
	var dropResize, dropRot, dropChan, dropNorm float64
	for _, r := range rows {
		if r.Baseline < 0.75 {
			t.Errorf("%s baseline = %.2f, want healthy (>= 0.75)", r.Model, r.Baseline)
		}
		dropResize += r.Baseline - r.ByBug[pipeline.BugResize]
		dropChan += r.Baseline - r.ByBug[pipeline.BugChannel]
		dropNorm += r.Baseline - r.ByBug[pipeline.BugNormalization]
		dropRot += r.Baseline - r.ByBug[pipeline.BugRotation]
	}
	n := float64(len(rows))
	dropResize, dropChan, dropNorm, dropRot = dropResize/n, dropChan/n, dropNorm/n, dropRot/n
	// Paper's severity ordering: resize is mildest; rotation and
	// normalization are the most damaging; channel sits between.
	if dropResize >= dropChan {
		t.Errorf("resize drop %.3f should be milder than channel drop %.3f", dropResize, dropChan)
	}
	if dropRot <= dropChan {
		t.Errorf("rotation drop %.3f should exceed channel drop %.3f", dropRot, dropChan)
	}
	if dropNorm <= dropResize {
		t.Errorf("normalization drop %.3f should exceed resize drop %.3f", dropNorm, dropResize)
	}
	var buf bytes.Buffer
	RenderFigure4a(&buf, rows)
	if !strings.Contains(buf.String(), "mobilenetv2-mini") {
		t.Error("render missing models")
	}
}

func TestFigure4bShape(t *testing.T) {
	rows, err := Figure4b()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d detectors", len(rows))
	}
	for _, r := range rows {
		if r.Baseline < 0.5 {
			t.Errorf("%s baseline mAP = %.2f, want functional detector", r.Model, r.Baseline)
		}
		// Channel and rotation must hurt; resize stays mild (paper: 0.1%).
		if r.ByBug[pipeline.BugChannel] >= r.Baseline {
			t.Errorf("%s: channel bug did not reduce mAP", r.Model)
		}
		if r.Baseline-r.ByBug[pipeline.BugResize] > 0.25 {
			t.Errorf("%s: resize drop %.2f too large for the mild-bug class", r.Model, r.Baseline-r.ByBug[pipeline.BugResize])
		}
	}
}

func TestFigure4cShape(t *testing.T) {
	rows, err := Figure4c()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d speech models", len(rows))
	}
	for _, r := range rows {
		if r.Baseline < 0.8 {
			t.Errorf("%s baseline = %.2f", r.Model, r.Baseline)
		}
		if r.Baseline-r.WrongNorm < 0.15 {
			t.Errorf("%s: spectrogram normalization mismatch only cost %.2f", r.Model, r.Baseline-r.WrongNorm)
		}
	}
}

func TestFigure5Shape(t *testing.T) {
	rows, err := Figure5()
	if err != nil {
		t.Fatal(err)
	}
	byModel := map[string]Figure5Row{}
	for _, r := range rows {
		byModel[r.Model] = r
		// Reference vs Mobile: conversion costs at most a few points.
		if r.Reference-r.Mobile > 0.05 {
			t.Errorf("%s: conversion dropped %.2f", r.Model, r.Reference-r.Mobile)
		}
	}
	// v1/v2: collapse under the optimized resolver only.
	for _, m := range []string{"mobilenetv1-mini", "mobilenetv2-mini"} {
		r := byModel[m]
		if r.MobileQuant > 0.3 {
			t.Errorf("%s: quant+optimized should collapse, got %.2f", m, r.MobileQuant)
		}
		if r.MobileQuantR < r.Mobile-0.1 {
			t.Errorf("%s: quant+reference should stay near float (%.2f vs %.2f)", m, r.MobileQuantR, r.Mobile)
		}
	}
	// v3: collapses under BOTH resolvers (the average-pool defect).
	v3 := byModel["mobilenetv3-mini"]
	if v3.MobileQuant > 0.3 || v3.MobileQuantR > 0.3 {
		t.Errorf("v3 should collapse under both resolvers: opt=%.2f ref=%.2f", v3.MobileQuant, v3.MobileQuantR)
	}
	// ResNet and Inception: unaffected (no depthwise, short-window pools).
	for _, m := range []string{"resnet-mini", "inception-mini"} {
		r := byModel[m]
		if r.Mobile-r.MobileQuant > 0.1 || r.Mobile-r.MobileQuantR > 0.1 {
			t.Errorf("%s should survive quantization: %.2f / %.2f vs %.2f", m, r.MobileQuant, r.MobileQuantR, r.Mobile)
		}
	}
}

func TestFigure5FixedRepairsEverything(t *testing.T) {
	rows, err := Figure5Fixed()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Mobile-r.MobileQuant > 0.12 {
			t.Errorf("%s: fixed kernels still lose %.2f under quantization", r.Model, r.Mobile-r.MobileQuant)
		}
		if r.Mobile-r.MobileQuantR > 0.12 {
			t.Errorf("%s: fixed reference kernels still lose %.2f", r.Model, r.Mobile-r.MobileQuantR)
		}
	}
}

func TestFigure6Localisation(t *testing.T) {
	series, err := Figure6(frames(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	sum := Figure6Summary(series)
	// v2 under the optimized resolver spikes at a DepthwiseConv2D.
	if got := sum["mobilenetv2-mini/optimized"]; !strings.Contains(got, "DepthwiseConv2D") {
		t.Errorf("v2/optimized spike = %q, want DepthwiseConv2D", got)
	}
	// v2 under the reference resolver is clean: no spike.
	if got := sum["mobilenetv2-mini/reference"]; !strings.Contains(got, "(") || strings.Contains(got, "Conv") {
		if strings.TrimSpace(got) != "()" && got != " ()" {
			t.Errorf("v2/reference should have no spike, got %q", got)
		}
	}
	// v3 under the reference resolver spikes at an AvgPool2D.
	if got := sum["mobilenetv3-mini/reference"]; !strings.Contains(got, "AvgPool2D") {
		t.Errorf("v3/reference spike = %q, want AvgPool2D", got)
	}
	// v2/reference stays below 10% drift everywhere (paper: "always below 10%").
	for _, s := range series {
		if s.Model == "mobilenetv2-mini" && s.Resolver == "reference" {
			for _, d := range s.Diffs {
				if d.NRMSE > 0.1 {
					t.Errorf("v2/reference layer %s drift %.3f exceeds 10%%", d.Name, d.NRMSE)
				}
			}
		}
	}
}

func TestFigure3CoverageMatrix(t *testing.T) {
	cells, err := Figure3(frames(5, 3))
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]Figure3Cell{}
	for _, c := range cells {
		byKey[c.Task+"/"+c.Issue] = c
	}
	// All classification bugs must be caught, with the right assertions.
	for issue, wantAssert := range map[string]string{
		"channel":       "channel-arrangement",
		"normalization": "normalization-range",
		"rotation":      "orientation",
		"quantization":  "quantization-drift",
	} {
		c, ok := byKey["classification/"+issue]
		if !ok || !c.Caught {
			t.Errorf("classification/%s not caught: %+v", issue, c)
			continue
		}
		if !strings.Contains(c.Assertion, wantAssert) {
			t.Errorf("classification/%s assertion = %q, want %s", issue, c.Assertion, wantAssert)
		}
	}
	// Straggler detection fires on the reference-resolver run.
	if c := byKey["classification/latency"]; !c.Caught {
		t.Errorf("latency straggler not caught: %+v", c)
	}
	// Speech normalization mismatch caught.
	if c := byKey["speech/specnorm"]; !c.Caught {
		t.Errorf("speech/specnorm not caught: %+v", c)
	}
	// Text case folding: outputs agree (the §A result) — nothing to catch.
	if c := byKey["text/lowercase"]; c.Agreement < 0.99 {
		t.Errorf("text case folding should not change outputs, agreement = %.2f", c.Agreement)
	}
	var buf bytes.Buffer
	RenderFigure3(&buf, cells)
	if !strings.Contains(buf.String(), "channel") {
		t.Error("render")
	}
}

// TestFleetShape pins the fleet table: the round-robin shares cover the
// frame range, rollups are populated per device, and exactly the bugged
// Pixel3 slot comes back flagged — the cross-device divergence contract.
func TestFleetShape(t *testing.T) {
	n := frames(48, 24)
	rows, err := Fleet(n, "classification")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3", len(rows))
	}
	total := 0
	for _, r := range rows {
		total += r.Frames
		if r.Frames == 0 {
			t.Errorf("%s got no frames", r.Device)
		}
		if r.MeanModeledMs <= 0 {
			t.Errorf("%s has no modeled-latency rollup", r.Device)
		}
		if (r.Device == "Pixel3") != r.Flagged {
			t.Errorf("%s flagged=%v; only the bugged Pixel3 should be flagged", r.Device, r.Flagged)
		}
		if r.Device == "Pixel3" && r.Agreement >= 0.98 {
			t.Errorf("bugged Pixel3 agreement %.2f, want < 0.98", r.Agreement)
		}
		if r.Device != "Pixel3" && r.Agreement < 0.98 {
			t.Errorf("healthy %s agreement %.2f", r.Device, r.Agreement)
		}
	}
	if total != n {
		t.Errorf("device shares cover %d of %d frames", total, n)
	}
	// The emulator's modeled latency dwarfs the phones' (§4.5: the ARM conv
	// optimizations don't transfer).
	byDev := map[string]FleetRow{}
	for _, r := range rows {
		byDev[r.Device] = r
	}
	if byDev["Emulator-x86"].MeanModeledMs <= byDev["Pixel4"].MeanModeledMs {
		t.Errorf("emulator modeled %.2fms not slower than Pixel4 %.2fms",
			byDev["Emulator-x86"].MeanModeledMs, byDev["Pixel4"].MeanModeledMs)
	}

	var buf bytes.Buffer
	RenderFleet(&buf, "classification", rows)
	if !strings.Contains(buf.String(), "Pixel3") || !strings.Contains(buf.String(), "X") {
		t.Errorf("rendered fleet table misses the flagged device:\n%s", buf.String())
	}
}

func TestTable1LoCAdvantage(t *testing.T) {
	rows := Table1()
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		with := r.WithInst + r.WithAssert
		without := r.WithoutInst + r.WithoutAssert
		if with >= without {
			t.Errorf("%s: with=%d not smaller than without=%d", r.Target, with, without)
		}
		if with > 15 {
			t.Errorf("%s: with-ML-EXray LoC = %d exceeds the paper's <=15 claim", r.Target, with)
		}
	}
	var buf bytes.Buffer
	RenderTable1(&buf, rows)
	if !strings.Contains(buf.String(), "Preprocessing") {
		t.Error("render")
	}
}

// TestMeanStd holds Table 2's ± column to math.Sqrt at the magnitudes it is
// fed: latencies are in ns, so a σ of 1 ms is a variance of 1e12 — where the
// 20-step Newton iteration this replaced had not converged (it read 1.28× the
// true σ at 1e12 and 9.6× at 1e14).
func TestMeanStd(t *testing.T) {
	for _, c := range []struct {
		xs             []float64
		mean, variance float64
	}{
		{[]float64{10e6, 20e6}, 15e6, 2.5e13},
		{[]float64{10e6, 12e6}, 11e6, 1e12},
		{[]float64{1e6, 21e6}, 11e6, 1e14},
		{[]float64{3e6, 3e6, 3e6, 7e6}, 4e6, 3e12}, // irrational σ
	} {
		mean, std := meanStd(c.xs)
		want := math.Sqrt(c.variance)
		if mean != c.mean || math.Abs(std-want) > 1e-12*want {
			t.Errorf("meanStd(%v) = %v ± %v, want %v ± %v", c.xs, mean, std, c.mean, want)
		}
	}
	if mean, std := meanStd(nil); mean != 0 || std != 0 {
		t.Errorf("meanStd(nil) = %v ± %v, want 0 ± 0", mean, std)
	}
}

func TestTable2OverheadShape(t *testing.T) {
	rows, err := Table2(frames(30, 12))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("%d rows", len(rows))
	}
	byKey := map[string]Table2Row{}
	for _, r := range rows {
		k := r.Device
		if r.Instrumented {
			k += "+inst"
		}
		byKey[k] = r
	}
	// Instrumentation adds a small latency overhead and bounded disk cost.
	for _, dev := range []string{"Pixel4", "Pixel4-GPU", "Pixel3"} {
		base, inst := byKey[dev], byKey[dev+"+inst"]
		if inst.LatMeanMs <= base.LatMeanMs {
			t.Errorf("%s: instrumentation should add latency (%.2f vs %.2f)", dev, inst.LatMeanMs, base.LatMeanMs)
		}
		overhead := (inst.LatMeanMs - base.LatMeanMs) / base.LatMeanMs
		if dev == "Pixel4" && overhead > 0.10 {
			t.Errorf("CPU overhead %.1f%% exceeds the paper's few-percent claim", 100*overhead)
		}
		if inst.DiskKBPerFrm <= 0 || inst.DiskKBPerFrm > 5 {
			t.Errorf("%s: disk = %.2f KB/frame, want small stats-only logs", dev, inst.DiskKBPerFrm)
		}
		if inst.MemoryMB <= base.MemoryMB {
			t.Errorf("%s: instrumentation should add memory", dev)
		}
	}
	// GPU runs are much faster than CPU, so the same logging cost is a
	// bigger relative overhead (the paper's 2.3% vs 15%).
	cpuOv := (byKey["Pixel4+inst"].LatMeanMs - byKey["Pixel4"].LatMeanMs) / byKey["Pixel4"].LatMeanMs
	gpuOv := (byKey["Pixel4-GPU+inst"].LatMeanMs - byKey["Pixel4-GPU"].LatMeanMs) / byKey["Pixel4-GPU"].LatMeanMs
	if gpuOv <= cpuOv {
		t.Errorf("GPU relative overhead (%.3f) should exceed CPU (%.3f)", gpuOv, cpuOv)
	}
	if byKey["Pixel3"].LatMeanMs <= byKey["Pixel4"].LatMeanMs {
		t.Error("Pixel 3 should be slower than Pixel 4")
	}
}

func TestTable3And5Shape(t *testing.T) {
	quant, err := Table3(frames(10, 4))
	if err != nil {
		t.Fatal(err)
	}
	float, err := Table5(frames(10, 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(quant) != 5 || len(float) != 5 {
		t.Fatalf("row counts %d/%d", len(quant), len(float))
	}
	for i := range quant {
		if quant[i].Layers <= 0 || quant[i].Params <= 0 || quant[i].DiskMB <= 0 {
			t.Errorf("degenerate row %+v", quant[i])
		}
		// The binary encoding of the same log is always smaller than JSONL.
		if quant[i].DiskMBBin <= 0 || quant[i].DiskMBBin >= quant[i].DiskMB {
			t.Errorf("%s: binary log %.2fMB not smaller than JSONL %.2fMB",
				quant[i].Model, quant[i].DiskMBBin, quant[i].DiskMB)
		}
		// Float per-layer logs are substantially larger than quantized ones
		// (f32 vs u8 payloads) — the Table 3 vs Table 5 relationship.
		if float[i].DiskMB <= quant[i].DiskMB {
			t.Errorf("%s: float log %.2fMB not larger than quant %.2fMB",
				float[i].Model, float[i].DiskMB, quant[i].DiskMB)
		}
	}
}

func TestTable4Shape(t *testing.T) {
	rows, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	byClass := map[string]Table4Row{}
	for _, r := range rows {
		byClass[r.Class] = r
	}
	dconv, ok := byClass["D-Conv"]
	if !ok {
		t.Fatal("no D-Conv row")
	}
	conv := byClass["Conv"]
	// (a) quantized conv is slower than float conv on the optimized path.
	if conv.Ms["MobileQuant"] <= conv.Ms["Mobile"] {
		t.Errorf("quant conv (%.2f) should be slower than float conv (%.2f)", conv.Ms["MobileQuant"], conv.Ms["Mobile"])
	}
	// (b) quantized depthwise is faster than float depthwise.
	if dconv.Ms["MobileQuant"] >= dconv.Ms["Mobile"] {
		t.Errorf("quant dconv (%.2f) should be faster than float dconv (%.2f)", dconv.Ms["MobileQuant"], dconv.Ms["Mobile"])
	}
	// (c) the reference resolver is orders of magnitude slower.
	if dconv.Ms["MobileQuantRef"] < 50*dconv.Ms["MobileQuant"] {
		t.Errorf("reference dconv (%.2f) should dwarf optimized (%.2f)", dconv.Ms["MobileQuantRef"], dconv.Ms["MobileQuant"])
	}
	if conv.Ms["MobileQuantRef"] < 100*conv.Ms["MobileQuant"] {
		t.Errorf("reference conv (%.2f) should dwarf optimized (%.2f)", conv.Ms["MobileQuantRef"], conv.Ms["MobileQuant"])
	}
	// (d) the emulator is dramatically slower on conv but comparable on
	// depthwise (ARM-specific optimizations don't transfer).
	if byClass["Conv"].Ms["Emulator"] < 20*conv.Ms["Mobile"] {
		t.Errorf("emulator conv (%.2f) should be tens of times slower than Pixel4 (%.2f)",
			conv.Ms["Emulator"], conv.Ms["Mobile"])
	}
	if dconv.Ms["Emulator"] > 3*dconv.Ms["Mobile"] {
		t.Errorf("emulator dconv (%.2f) should be comparable to Pixel4 (%.2f)",
			dconv.Ms["Emulator"], dconv.Ms["Mobile"])
	}
}

func TestAppendixTextShape(t *testing.T) {
	rows, err := AppendixText(frames(60, 24))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.EmbeddingNRMSE < 0.05 {
			t.Errorf("%s: embeddings barely changed (%.3f)", r.Model, r.EmbeddingNRMSE)
		}
		if diff := r.AccuracyCased - r.AccuracyFolded; diff > 0.05 || diff < -0.05 {
			t.Errorf("%s: accuracy changed by %.2f despite §A expecting invariance", r.Model, diff)
		}
	}
}

func TestAppendixInGraphImmunity(t *testing.T) {
	rows, err := AppendixInGraph(frames(80, 40))
	if err != nil {
		t.Fatal(err)
	}
	stock, ing := rows[0], rows[1]
	if stock.Baseline-stock.Norm < 0.1 {
		t.Errorf("stock model should suffer from the normalization bug (%.2f -> %.2f)", stock.Baseline, stock.Norm)
	}
	if ing.Baseline != ing.Norm || ing.Baseline != ing.Resize {
		t.Error("in-graph variant must be bug-invariant by construction")
	}
	if ing.Baseline < stock.Baseline-0.1 {
		t.Errorf("in-graph variant accuracy %.2f fell below stock %.2f", ing.Baseline, stock.Baseline)
	}
}

func TestAblations(t *testing.T) {
	em, err := AblationErrorMetrics()
	if err != nil {
		t.Fatal(err)
	}
	if em[0].SpikeOp != "DepthwiseConv2D" {
		t.Errorf("normalized rMSE localised %s, want DepthwiseConv2D", em[0].SpikeOp)
	}
	pc, err := AblationPerChannel()
	if err != nil {
		t.Fatal(err)
	}
	if pc[0].Accuracy < pc[1].Accuracy-0.02 {
		t.Errorf("per-channel (%.2f) should not lose to per-tensor (%.2f)", pc[0].Accuracy, pc[1].Accuracy)
	}
	cal, err := AblationCalibration()
	if err != nil {
		t.Fatal(err)
	}
	if cal[1].Accuracy < cal[0].Accuracy-0.02 {
		t.Errorf("clipped calibration (%.2f) should not lose to strict (%.2f)", cal[1].Accuracy, cal[0].Accuracy)
	}
	cap, err := AblationCaptureMode()
	if err != nil {
		t.Fatal(err)
	}
	if cap[1].BytesPerFrame < 20*cap[0].BytesPerFrame {
		t.Errorf("full capture (%dB) should dwarf stats-only (%dB)", cap[1].BytesPerFrame, cap[0].BytesPerFrame)
	}
	if _, err := AblationSymmetric(); err != nil {
		t.Fatal(err)
	}
	lf, err := AblationLogFormat()
	if err != nil {
		t.Fatal(err)
	}
	if len(lf) != 2 || lf[0].Format.String() != "jsonl" || lf[1].Format.String() != "binary" {
		t.Fatalf("log-format rows = %+v", lf)
	}
	// The binary encoding must beat JSONL on bytes (no base64, no JSON
	// framing) while carrying the same records.
	if lf[1].BytesPerFrame >= lf[0].BytesPerFrame {
		t.Errorf("binary log (%dB/frm) not smaller than JSONL (%dB/frm)", lf[1].BytesPerFrame, lf[0].BytesPerFrame)
	}
	if lf[0].RecordsPerFrame != lf[1].RecordsPerFrame {
		t.Errorf("record counts differ across formats: %d vs %d", lf[0].RecordsPerFrame, lf[1].RecordsPerFrame)
	}
	var buf bytes.Buffer
	RenderAblationLogFormat(&buf, lf)
	if !strings.Contains(buf.String(), "binary") {
		t.Error("render missing binary row")
	}
	kb, err := AblationKernelBackend()
	if err != nil {
		t.Fatal(err)
	}
	if len(kb) != 4 {
		t.Fatalf("kernel-backend rows = %d, want 2 backends x 2 kinds", len(kb))
	}
	for _, row := range kb {
		// The seam's fidelity contract: quantized output is bit-exact on
		// every backend; tiled float is only held to argmax agreement.
		if row.Kind == "int8" && !row.BitExact {
			t.Errorf("%s/int8 not bit-exact against reference", row.Backend)
		}
		if row.Top1Agree < 1 {
			t.Errorf("%s/%s top-1 agreement %.2f, want 1.00 on benign drift", row.Backend, row.Kind, row.Top1Agree)
		}
	}
	buf.Reset()
	RenderAblationKernel(&buf, kb)
	if !strings.Contains(buf.String(), "tiled") {
		t.Error("kernel render missing tiled row")
	}
}

// TestFleetDetectionShape pins the detection binding of the fleet demo: the
// same three-device fleet shards the SSD replay, rollups populate, and only
// the bugged Pixel3 is flagged — the task-agnostic scheduler contract.
func TestFleetDetectionShape(t *testing.T) {
	n := frames(24, 12)
	rows, err := Fleet(n, "detection")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3", len(rows))
	}
	total := 0
	for _, r := range rows {
		total += r.Frames
		if r.MeanModeledMs <= 0 {
			t.Errorf("%s has no modeled-latency rollup", r.Device)
		}
		if (r.Device == "Pixel3") != r.Flagged {
			t.Errorf("%s flagged=%v; only the bugged Pixel3 should be flagged", r.Device, r.Flagged)
		}
	}
	if total != n {
		t.Errorf("device shares cover %d of %d frames", total, n)
	}
	var buf bytes.Buffer
	RenderFleet(&buf, "detection", rows)
	if !strings.Contains(buf.String(), "detection") || !strings.Contains(buf.String(), "X") {
		t.Errorf("rendered detection fleet table misses content:\n%s", buf.String())
	}
}
