package core

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// LayerDiff is the per-layer drift between an edge log and a reference log,
// averaged over frames. NRMSE is the paper's normalized rMSE (§3.4):
// rMSE / (max - min) of the reference layer output.
type LayerDiff struct {
	Index  int
	Name   string
	OpType string
	NRMSE  float64
	RMSE   float64
	MaxAbs float64
	Frames int
}

// CompareLayers aligns per-layer tensor records of two logs by layer name
// and computes drift per layer, averaged across the frames present in both.
// Layers existing in only one log (e.g. Quantize/Dequantize boundary nodes
// in the quantized graph) are skipped — alignment is by name, exactly how
// the paper compares model versions that share structure.
func CompareLayers(edge, ref *Log) ([]LayerDiff, error) {
	if min(edge.Frames(), ref.Frames()) == 0 {
		return nil, fmt.Errorf("core: no frames to compare")
	}
	var s layerDiffState
	s.consumeLog(edge, newRefIndex(ref))
	return s.finalize()
}

// SuspectLayers returns the layers whose drift indicates a fault: NRMSE
// above threshold, with the classic "jump" pattern (a layer much worse than
// the best preceding layer) flagged first. This is the localisation step of
// the Figure 2 flowchart.
func SuspectLayers(diffs []LayerDiff, threshold float64) []LayerDiff {
	var out []LayerDiff
	for _, d := range diffs {
		if d.NRMSE >= threshold {
			out = append(out, d)
		}
	}
	return out
}

// FirstSpike returns the earliest layer whose NRMSE exceeds threshold and
// is at least jumpFactor times the previous layer's — the "jump of rMSE
// after a particular op" that localises a kernel defect (§4.4).
func FirstSpike(diffs []LayerDiff, threshold, jumpFactor float64) (LayerDiff, bool) {
	prev := 0.0
	for _, d := range diffs {
		if d.NRMSE >= threshold && (prev <= 0 || d.NRMSE >= jumpFactor*prev) {
			return d, true
		}
		prev = d.NRMSE
	}
	return LayerDiff{}, false
}

// OutputAgreement returns the fraction of frames on which the two logs'
// model outputs have the same argmax — the accuracy-validation step when no
// labels are available.
func OutputAgreement(edge, ref *Log) (float64, error) {
	out := outputState{maxFrame: -1}
	for i := range edge.Records {
		// A frame whose output fails to decode is simply not compared.
		_ = out.consume(&edge.Records[i])
	}
	return out.agreement(newRefIndex(ref))
}

// LayerLatency aggregates per-layer latency records by layer class (the
// Table 4 breakdown): total nanoseconds and node counts per OpType class.
type LayerLatency struct {
	Class   string
	Count   int
	TotalNs float64
}

// LatencyByClass aggregates one log's per-layer latency records.
func LatencyByClass(l *Log, classOf func(opType string) string) []LayerLatency {
	byClass := map[string]*LayerLatency{}
	seen := map[string]map[string]bool{} // class -> layer names (count distinct layers)
	var order []string
	for _, r := range l.Records {
		if !isLayerLatency(&r) {
			continue
		}
		cls := classOf(r.OpType)
		ll, ok := byClass[cls]
		if !ok {
			ll = &LayerLatency{Class: cls}
			byClass[cls] = ll
			seen[cls] = map[string]bool{}
			order = append(order, cls)
		}
		ll.TotalNs += r.Value
		if !seen[cls][r.LayerName] {
			seen[cls][r.LayerName] = true
			ll.Count++
		}
	}
	out := make([]LayerLatency, 0, len(byClass))
	for _, c := range order {
		out = append(out, *byClass[c])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TotalNs > out[j].TotalNs })
	return out
}

// StragglersVsReference compares per-layer latency against the reference
// run's: each layer's slowdown ratio is normalized by the median ratio (the
// overall platform speed difference), and layers exceeding factor times the
// median stand out — the §4.5 diagnosis that exposed ARM-specific conv
// kernels running 44x slower on the x86 emulator.
func StragglersVsReference(edge, ref *Log, factor float64) []string {
	// Only device-modeled latencies are comparable across runs; wall-clock
	// measurements from different resolvers or hosts would produce spurious
	// ratios.
	var s stragglerState
	s.consumeLog(edge)
	return s.vsReference(meanLayerLatencyModeled(ref), factor)
}

func meanLayerLatencyModeled(l *Log) map[string]float64 {
	var s stragglerState
	s.consumeLog(l)
	return s.modeledMeans()
}

// Stragglers returns the layers whose latency (their fastest record, which
// timing noise cannot inflate) exceeds factor times the median layer's — the
// per-layer latency validation of §4.5.
func Stragglers(l *Log, factor float64) []string {
	var s stragglerState
	s.consumeLog(l)
	return s.finalize(factor)
}

// Report is the validator's output: the Figure 2 flowchart results.
type Report struct {
	OutputAgreement float64
	LayerDiffs      []LayerDiff
	Suspects        []LayerDiff
	Spike           *LayerDiff
	Findings        []Finding
	Stragglers      []string
}

// ValidateOptions tunes the validator.
type ValidateOptions struct {
	// AgreementThreshold below which per-layer analysis is triggered.
	AgreementThreshold float64
	// NRMSEThreshold above which a layer is suspect.
	NRMSEThreshold float64
	// StragglerFactor for latency outliers.
	StragglerFactor float64
	// Assertions to run for root-cause analysis (built-ins plus
	// user-defined).
	Assertions []Assertion
}

// DefaultValidateOptions returns the thresholds used throughout the
// evaluation.
func DefaultValidateOptions() ValidateOptions {
	return ValidateOptions{
		AgreementThreshold: 0.98,
		NRMSEThreshold:     0.1,
		StragglerFactor:    8,
		Assertions:         BuiltinAssertions(),
	}
}

// WithDefaults fills each unset field from DefaultValidateOptions, so a
// partially specified options struct keeps what it set (pass an empty
// non-nil Assertions slice to disable assertions rather than inherit the
// built-ins). Collectors and the gateway merging their snapshots both
// default through here — what keeps their thresholds in agreement.
func (o ValidateOptions) WithDefaults() ValidateOptions {
	def := DefaultValidateOptions()
	if o.AgreementThreshold == 0 {
		o.AgreementThreshold = def.AgreementThreshold
	}
	if o.NRMSEThreshold == 0 {
		o.NRMSEThreshold = def.NRMSEThreshold
	}
	if o.StragglerFactor == 0 {
		o.StragglerFactor = def.StragglerFactor
	}
	if o.Assertions == nil {
		o.Assertions = def.Assertions
	}
	return o
}

// Validate implements the paper's deployment-validation flowchart (Fig. 2):
// 1) match outputs between the edge and reference pipelines; 2) on
// disagreement, scrutinise layer-level drift to localise the fault; 3) run
// assertion functions for root-cause analysis.
//
// Validate is the offline entry point of the incremental validator: it
// streams the edge log through a StreamValidator record by record (the same
// accumulators a live ingest session runs) and finalizes with the full edge
// log as assertion evidence. A report produced by streaming the same records
// through StreamValidator.Consume is therefore identical by construction.
func Validate(edge, ref *Log, opts ValidateOptions) (*Report, error) {
	sv := NewStreamValidator(ref, opts)
	// Offline, the log is at hand: nothing of it is retained, and the
	// expensive per-layer drift fold is skipped unless agreement turns out to
	// need it (reportLocked replays the layer records then) — healthy runs
	// never pay for CompareLayers.
	sv.offline = true
	// Malformed records poison exactly the analyses the offline flow drops
	// (per-layer drift, the frame's agreement sample); the errors they carry
	// are re-surfaced by reportLocked where fatal.
	_ = sv.ConsumeFrame(0, edge.Records)
	sv.mu.Lock()
	defer sv.mu.Unlock()
	return sv.reportLocked(edge)
}

// Render writes a human-readable report.
func (r *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "ML-EXray deployment validation report\n")
	fmt.Fprintf(w, "  output agreement with reference: %.1f%%\n", 100*r.OutputAgreement)
	if r.Spike != nil {
		fmt.Fprintf(w, "  first drift spike: layer %d (%s, %s) nRMSE=%.3f\n",
			r.Spike.Index, r.Spike.Name, r.Spike.OpType, r.Spike.NRMSE)
	}
	if len(r.Suspects) > 0 {
		fmt.Fprintf(w, "  suspect layers (nRMSE over threshold): %d\n", len(r.Suspects))
		for i, d := range r.Suspects {
			if i >= 8 {
				fmt.Fprintf(w, "    ... and %d more\n", len(r.Suspects)-8)
				break
			}
			fmt.Fprintf(w, "    [%3d] %-28s %-16s nRMSE=%.3f\n", d.Index, d.Name, d.OpType, d.NRMSE)
		}
	}
	if len(r.Stragglers) > 0 {
		fmt.Fprintf(w, "  straggler layers: %s\n", strings.Join(r.Stragglers, ", "))
	}
	if len(r.Findings) == 0 {
		fmt.Fprintf(w, "  root-cause assertions: none triggered\n")
	} else {
		fmt.Fprintf(w, "  root-cause assertions:\n")
		for _, f := range r.Findings {
			fmt.Fprintf(w, "    [%s] %s\n", f.Assertion, f.Detail)
		}
	}
}
