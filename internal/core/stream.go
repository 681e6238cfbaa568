package core

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"mlexray/internal/tensor"
)

// This file is the incremental half of the deployment validator: the
// StreamValidator consumes one telemetry stream record by record — frames
// arriving from a live device upload, not a log file on disk — and rolls the
// validation analyses up as it goes, so the final Report is available the
// moment the stream ends without ever holding the stream in memory. The
// offline entry points (Validate, FleetValidate) delegate to the same
// accumulators, which is what pins the streaming and offline reports to each
// other: they are one code path, not two implementations kept in sync by
// hand.
//
// Memory contract: per-layer telemetry — the megabytes-per-frame part of a
// full-capture log — is folded into fixed-size per-layer accumulators and
// dropped. What grows with the stream is bounded evidence: one argmax per
// frame (output agreement), scalar metrics (assertion evidence), and the
// boundary tensors of the first few frames (what the built-in root-cause
// assertions sample). A million-frame upload costs megabytes of state, not
// the gigabytes the log itself serializes to.

// refIndex precomputes the reference-side lookups every stream consumer
// needs: per-frame output argmax, the per-layer modeled-latency means, and —
// built on first use, since a healthy offline validation never asks —
// the per-(frame, key) layer records with their value ranges. One refIndex is
// shared by all sessions validating against the same reference log, which is
// immutable; once built, nothing in it changes.
type refIndex struct {
	ref    *Log
	frames int
	outArg map[int]int
	// outErr is the first output-record decode error, in log order —
	// propagated by the fleet path (outputArgmaxByFrame semantics), skipped
	// by the per-stream agreement (FirstTensor-per-frame semantics, where a
	// frame that fails to decode is simply not compared).
	outErr error
	lat    map[string]float64

	layersOnce sync.Once
	layer      map[refKey]refLayer // read through layers()
}

type refKey struct {
	frame int
	key   string
}

// refLayer is one reference layer record as the drift pass needs it:
// validated once (err is what DecodeTensor would say), with the value range
// max−min that normalizes the layer's rMSE computed once instead of per
// device per frame.
type refLayer struct {
	rec   *Record
	dt    tensor.DType
	elems int
	rng   float64
	err   error
}

func newRefIndex(ref *Log) *refIndex {
	ri := &refIndex{
		ref:    ref,
		frames: ref.Frames(),
		outArg: make(map[int]int),
	}
	seenOut := make(map[int]bool)
	for i := range ref.Records {
		r := &ref.Records[i]
		if r.Kind != KindTensor {
			continue
		}
		if r.Key == KeyModelOutput && !seenOut[r.Frame] {
			seenOut[r.Frame] = true
			t, err := r.DecodeTensor()
			if err != nil {
				if ri.outErr == nil {
					ri.outErr = err
				}
				continue
			}
			ri.outArg[r.Frame] = t.ArgMax()
		}
	}
	ri.lat = meanLayerLatencyModeled(ref)
	return ri
}

// layers returns the per-(frame, key) reference layer records, indexing and
// range-scanning them on the first call: scanned on every core, inserted
// serially in log order, so a key the log repeats keeps its last record
// whatever the schedule.
func (ri *refIndex) layers() map[refKey]refLayer {
	ri.layersOnce.Do(func() {
		recs, scanned := measureLayers(ri.ref, func(r *Record, w *driftScratch) refLayer {
			rl := refLayer{rec: r}
			if rl.dt, rl.elems, rl.err = r.tensorLayout(); rl.err != nil {
				return rl
			}
			if rl.dt == tensor.F32 {
				rl.rng = rangeF32(r.Payload)
			} else {
				w.refVals = widenPayload(w.refVals[:0], r, rl.dt, rl.elems)
				rl.rng = valueRange(w.refVals)
			}
			return rl
		})
		ri.layer = make(map[refKey]refLayer, len(recs))
		for i, r := range recs {
			ri.layer[refKey{r.Frame, r.Key}] = scanned[i]
		}
	})
	return ri.layer
}

// measureLayers applies f to every per-layer tensor record of a log and
// returns the records and f's results, both in log order. The records are
// measured on GOMAXPROCS goroutines (the caller's among them) that each take
// the next block until none is left; f is pure but for the scratch it is
// handed, and callers fold the results in order afterwards, so nothing they
// compute depends on the schedule. On one core, or for a single block, it is
// a plain loop.
func measureLayers[T any](l *Log, f func(*Record, *driftScratch) T) ([]*Record, []T) {
	var recs []*Record
	for i := range l.Records {
		if r := &l.Records[i]; r.Kind == KindTensor && strings.HasPrefix(r.Key, keyLayerPrefix) {
			recs = append(recs, r)
		}
	}
	out := make([]T, len(recs))
	const block = 16 // records: a few hundred µs of drift, far above the hand-off
	var next atomic.Int64
	work := func() {
		var w driftScratch
		for lo := int(next.Add(block)) - block; lo < len(recs); lo = int(next.Add(block)) - block {
			for i := lo; i < min(lo+block, len(recs)); i++ {
				out[i] = f(recs[i], &w)
			}
		}
	}
	var wg sync.WaitGroup
	for extra := min(runtime.GOMAXPROCS(0), (len(recs)+block-1)/block) - 1; extra > 0; extra-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return recs, out
}

// layerAcc accumulates one layer's drift across frames.
type layerAcc struct {
	diff LayerDiff
	sumN float64
	sumR float64
	maxA float64
	n    int
}

// layerDiffState is the per-layer drift analysis (CompareLayers feeds a whole
// log through it): each consumed edge layer record is measured against the
// reference index and folded into its layer's accumulator. A record that
// fails to validate poisons the whole analysis (sticky error).
type layerDiffState struct {
	accs    map[string]*layerAcc
	order   []string
	err     error
	scratch driftScratch // the streaming path's; measureLayers hands out its own
}

// driftScratch is the widening scratch of the uncommon dtype pairs (see
// drift); kept so a steady stream allocates nothing per record.
type driftScratch struct{ edgeVals, refVals []float32 }

// layerDrift is one edge layer record measured against the reference record
// of the same frame and key. A layer the reference lacks, or holds with
// another element count, is not matched: fold skips it.
type layerDrift struct {
	nrmse, rmse, maxAbs float64
	matched             bool
	err                 error
}

// measure computes one record's normalized rMSE, rMSE and max|d|, all from
// one walk over the two payloads (drift.go). It reads only its arguments and
// writes only the scratch, so records can be measured in any order, on any
// goroutine, to the same bits.
func (w *driftScratch) measure(er *Record, layers map[refKey]refLayer) layerDrift {
	rl, ok := layers[refKey{er.Frame, er.Key}]
	if !ok {
		return layerDrift{}
	}
	edt, n, err := er.tensorLayout()
	if err == nil {
		err = rl.err
	}
	if err != nil {
		return layerDrift{err: err}
	}
	if n != rl.elems {
		return layerDrift{}
	}
	sumSq, maxA := w.drift(er, edt, rl)
	rmse := 0.0
	if n > 0 {
		rmse = math.Sqrt(sumSq / float64(n))
	}
	// A degenerate (constant) reference keeps the raw rMSE, as
	// tensor.NormalizedRMSE does.
	nrmse := rmse
	if rl.rng > 0 {
		nrmse = rmse / rl.rng
	}
	return layerDrift{nrmse: nrmse, rmse: rmse, maxAbs: maxA, matched: true}
}

// fold adds one measured record to its layer's accumulator. The sums are
// order-sensitive floats: every path folds in log order.
func (s *layerDiffState) fold(er *Record, m layerDrift) error {
	if m.err != nil {
		s.err = m.err
		return m.err
	}
	if !m.matched {
		return nil
	}
	a, ok := s.accs[er.Key]
	if !ok {
		if s.accs == nil {
			s.accs = make(map[string]*layerAcc)
		}
		a = &layerAcc{diff: LayerDiff{Index: er.LayerIndex, Name: er.LayerName, OpType: er.OpType}}
		s.accs[er.Key] = a
		s.order = append(s.order, er.Key)
	}
	a.sumN += m.nrmse
	a.sumR += m.rmse
	if m.maxAbs > a.maxA {
		a.maxA = m.maxAbs
	}
	a.n++
	return nil
}

// consume measures and folds one edge layer record — the streaming path.
func (s *layerDiffState) consume(er *Record, ri *refIndex) error {
	if s.err != nil {
		return nil
	}
	return s.fold(er, s.scratch.measure(er, ri.layers()))
}

// consumeLog folds every per-layer tensor record of a log: measured on every
// core, folded here in log order up to the first malformed record — consume
// over the same records, number for number and error for error.
func (s *layerDiffState) consumeLog(l *Log, ri *refIndex) {
	if s.err != nil {
		return
	}
	layers := ri.layers()
	recs, drifts := measureLayers(l, func(r *Record, w *driftScratch) layerDrift { return w.measure(r, layers) })
	for i, r := range recs {
		if s.fold(r, drifts[i]) != nil {
			return // sticky: finalize reports it
		}
	}
}

// finalize builds the per-layer diff table the accumulators hold so far. It
// does not consume the state: a status endpoint can call it mid-stream and
// the final report later.
func (s *layerDiffState) finalize() ([]LayerDiff, error) {
	if s.err != nil {
		return nil, s.err
	}
	if len(s.accs) == 0 {
		return nil, fmt.Errorf("core: logs share no per-layer tensor records (was per-layer capture enabled?)")
	}
	diffs := make([]LayerDiff, 0, len(s.accs))
	for _, key := range s.order {
		a := s.accs[key]
		d := a.diff
		d.NRMSE = a.sumN / float64(a.n)
		d.RMSE = a.sumR / float64(a.n)
		d.MaxAbs = a.maxA
		d.Frames = a.n
		diffs = append(diffs, d)
	}
	sort.Slice(diffs, func(i, j int) bool { return diffs[i].Index < diffs[j].Index })
	return diffs, nil
}

// outputState tracks per-frame output argmax incrementally: the first output
// tensor record of each frame decides the frame (later duplicates are
// ignored, matching FirstTensor), and maxFrame tracks the stream's frame
// count across all records.
type outputState struct {
	arg      map[int]int
	seen     map[int]bool
	maxFrame int
	// argErr is the first output decode error, sticky — the fleet rollup
	// propagates it (outputArgmaxByFrame), the agreement rollup skips the
	// frame (FirstTensor error semantics).
	argErr error
}

func (s *outputState) consume(r *Record) error {
	if r.Frame > s.maxFrame {
		s.maxFrame = r.Frame
	}
	if r.Kind != KindTensor || r.Key != KeyModelOutput {
		return nil
	}
	if s.seen[r.Frame] {
		return nil
	}
	if s.seen == nil {
		s.seen = make(map[int]bool)
		s.arg = make(map[int]int)
	}
	s.seen[r.Frame] = true
	t, err := r.DecodeTensor()
	if err != nil {
		if s.argErr == nil {
			s.argErr = err
		}
		return err
	}
	s.arg[r.Frame] = t.ArgMax()
	return nil
}

// frames is the stream's frame count so far (max frame tag + 1, like
// Log.Frames).
func (s *outputState) frames() int { return s.maxFrame + 1 }

// agreement is the fraction of frames whose output argmax matches the
// reference's, over the frames both sides carry a decodable output for.
func (s *outputState) agreement(ri *refIndex) (float64, error) {
	frames := min(s.frames(), ri.frames)
	if frames == 0 {
		return 0, fmt.Errorf("core: no frames to compare")
	}
	agree, total := 0, 0
	for f := 0; f < frames; f++ {
		ea, okE := s.arg[f]
		ra, okR := ri.outArg[f]
		if !okE || !okR {
			continue
		}
		total++
		if ea == ra {
			agree++
		}
	}
	if total == 0 {
		return 0, fmt.Errorf("core: logs carry no model outputs")
	}
	return float64(agree) / float64(total), nil
}

// isLayerLatency reports whether r is a per-layer latency metric.
func isLayerLatency(r *Record) bool {
	return r.Kind == KindMetric && strings.HasPrefix(r.Key, keyLayerPrefix) && strings.HasSuffix(r.Key, "/latency_ns")
}

// stragglerState is the per-layer latency analysis (Stragglers and
// StragglersVsReference feed whole logs through it): per-layer latencies in
// first-seen order.
type stragglerState struct {
	// fastest is each layer's fastest latency record: the one reading that
	// one-sided timing noise cannot inflate (see finalize).
	fastest map[string]float64
	order   []string
	// modeledSum/modeledN accumulate the "ns-modeled" records alone for the
	// vs-reference comparison (only those are comparable across runs).
	modeledSum map[string]float64
	modeledN   map[string]int
}

func (s *stragglerState) consume(r *Record) {
	best, ok := s.fastest[r.LayerName]
	if !ok {
		if s.fastest == nil {
			s.fastest = make(map[string]float64)
			s.modeledSum = make(map[string]float64)
			s.modeledN = make(map[string]int)
		}
		s.order = append(s.order, r.LayerName)
	}
	if !ok || r.Value < best {
		s.fastest[r.LayerName] = r.Value
	}
	if r.Unit == "ns-modeled" {
		s.modeledSum[r.LayerName] += r.Value
		s.modeledN[r.LayerName]++
	}
}

// consumeLog folds every per-layer latency record of a log, in log order.
func (s *stragglerState) consumeLog(l *Log) {
	for i := range l.Records {
		if r := &l.Records[i]; isLayerLatency(r) {
			s.consume(r)
		}
	}
}

// modeledMeans is each layer's mean modeled latency.
func (s *stragglerState) modeledMeans() map[string]float64 {
	out := make(map[string]float64, len(s.modeledSum))
	for name, sum := range s.modeledSum {
		out[name] = sum / float64(s.modeledN[name])
	}
	return out
}

// finalize returns the layers whose latency exceeds factor times the median
// layer's. A layer's latency is its fastest record: measured latencies carry
// one-sided noise (a preemption or a GC assist inside one frame's timing
// window), and once layers take a microsecond or two — the float kernels on
// AVX2 — a single such frame would lift a five-frame mean past any factor.
// The fastest run is what the kernel costs; a straggler is slow every time.
// Modeled latencies barely move between frames, so they read the same.
func (s *stragglerState) finalize(factor float64) []string {
	if len(s.fastest) == 0 {
		return nil
	}
	best := make([]float64, 0, len(s.fastest))
	for _, v := range s.fastest {
		best = append(best, v)
	}
	sort.Float64s(best)
	median := best[len(best)/2]
	var out []string
	for _, name := range s.order {
		if median > 0 && s.fastest[name] >= factor*median {
			out = append(out, name)
		}
	}
	return out
}

// vsReference returns the layers whose modeled-latency slowdown vs the
// reference's per-layer means exceeds factor times the median slowdown.
func (s *stragglerState) vsReference(refLat map[string]float64, factor float64) []string {
	type ratioEntry struct {
		name  string
		ratio float64
	}
	var entries []ratioEntry
	for name, e := range s.modeledMeans() {
		if r, ok := refLat[name]; ok && r > 0 {
			entries = append(entries, ratioEntry{name, e / r})
		}
	}
	if len(entries) == 0 {
		return nil
	}
	ratios := make([]float64, len(entries))
	for i, e := range entries {
		ratios[i] = e.ratio
	}
	sort.Float64s(ratios)
	median := ratios[len(ratios)/2]
	if median <= 0 {
		return nil
	}
	var out []string
	for _, e := range entries {
		if e.ratio >= factor*median {
			out = append(out, e.name)
		}
	}
	sort.Strings(out)
	return out
}

// DefaultRetainBoundaryFrames is how many leading frames keep their boundary
// tensor records (preprocess/model inputs and outputs) for the assertion
// pass. The built-in assertions sample at most the first three frames that
// carry preprocessing records in both logs, so the default leaves headroom
// without growing with the stream.
const DefaultRetainBoundaryFrames = 8

// StreamValidator is the incremental deployment validator: it consumes one
// device's telemetry stream record by record (frames in increasing order, as
// every log codec and sink emits them) and maintains the rollups the
// validation Report is computed from — output agreement, per-layer drift,
// straggler latency — in bounded memory. Report may be called at any point:
// mid-stream for a live status, and after the last record for the final
// report, which is pinned identical to running the offline Validate over the
// same records (Validate itself delegates here).
//
// Per-layer tensor payloads are folded into accumulators and dropped;
// boundary tensors are retained for the first DefaultRetainBoundaryFrames
// frames and scalar metrics throughout, which is the evidence the built-in
// root-cause assertions read. A custom Assertion that scans full tensors
// beyond the retained window will see them missing in streaming mode — run
// such assertions offline on the stored log instead.
//
// A StreamValidator is also a Sink (WriteFrame/Flush), so a replay can
// stream straight into validation without a log file in between. All methods
// are safe for concurrent use; records of one stream must still be consumed
// in log order for the report to be meaningful.
type StreamValidator struct {
	mu   sync.Mutex
	ri   *refIndex
	opts ValidateOptions

	device  string
	out     outputState
	layers  layerDiffState
	strag   stragglerState
	infSum  float64 // KeyInferenceModeled rollup (fleet latency column)
	infN    int
	retain  Log
	records int
	bytes   int
	// offline (Validate only): the whole edge log is at hand and goes to
	// reportLocked, so consumption neither retains evidence nor folds
	// per-layer drift — reportLocked replays the layer records from the log
	// if, and only if, agreement drops below threshold. A live stream can do
	// neither (the records are gone once consumed).
	offline bool
}

// NewStreamValidator builds an incremental validator that checks a telemetry
// stream against the reference log. The reference is indexed once up front;
// use NewFleetStreamValidator to share one reference across many device
// sessions.
func NewStreamValidator(ref *Log, opts ValidateOptions) *StreamValidator {
	return &StreamValidator{ri: newRefIndex(ref), opts: opts, out: outputState{maxFrame: -1}}
}

func newSessionValidator(ri *refIndex, opts ValidateOptions, device string) *StreamValidator {
	return &StreamValidator{ri: ri, opts: opts, device: device, out: outputState{maxFrame: -1}}
}

// Device returns the device name the session was opened under (empty for a
// standalone validator).
func (v *StreamValidator) Device() string { return v.device }

// Reset clears every accumulated rollup — output argmaxes, layer-drift and
// straggler accumulators, retained evidence, byte/record counters — while
// keeping the shared reference index, options and device name. After Reset
// the validator is indistinguishable from a fresh session: re-consuming the
// same records yields an identical Report. This is the replay seam durable
// collectors build on — rebuild a session in place and replay its
// write-ahead log through Consume, instead of constructing a new validator
// against a re-indexed reference.
func (v *StreamValidator) Reset() {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.out = outputState{maxFrame: -1}
	v.layers = layerDiffState{}
	v.strag = stragglerState{}
	v.infSum, v.infN = 0, 0
	v.retain = Log{}
	v.records, v.bytes = 0, 0
}

// Consume folds one record into the rollups. The returned error reports a
// malformed record (an undecodable tensor payload); consumption may continue
// but the analyses the record belonged to are marked poisoned, exactly as
// the offline validator aborts them.
func (v *StreamValidator) Consume(r Record) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.consumeLocked(&r)
}

func (v *StreamValidator) consumeLocked(r *Record) error {
	v.records++
	err := v.out.consume(r)
	if strings.HasPrefix(r.Key, keyLayerPrefix) {
		// Per-layer telemetry: fold and drop — this is the part of the
		// stream whose retention would grow without bound.
		switch {
		case r.Kind == KindTensor:
			if v.offline {
				break
			}
			if lerr := v.layers.consume(r, v.ri); lerr != nil && err == nil {
				err = lerr
			}
		case isLayerLatency(r):
			v.strag.consume(r)
		}
		return err
	}
	if (r.Kind == KindMetric || r.Kind == KindSensor) && r.Key == KeyInferenceModeled {
		v.infSum += r.Value
		v.infN++
	}
	// Boundary records are the assertion evidence: scalars are retained
	// throughout (they are what Metric/Sensor queries read), tensors only in
	// the leading window the built-in assertions sample.
	if !v.offline && (r.Kind == KindMetric || r.Kind == KindSensor || r.Frame <= DefaultRetainBoundaryFrames) {
		// The caller keeps ownership of the payload bytes — the collector
		// decodes chunks in place out of a pooled body — so what outlives
		// this call is a copy.
		kept := *r
		kept.Payload = bytes.Clone(r.Payload)
		v.retain.Records = append(v.retain.Records, kept)
	}
	return err
}

// ConsumeFrame folds a run of records in order under one lock: one frame
// from a replay engine's Sink, a whole upload chunk from the ingest service,
// a whole log from the offline validator. It returns the first record error;
// frame is informational. The records are only read, and nothing of them is
// held after the call returns.
func (v *StreamValidator) ConsumeFrame(frame int, recs []Record) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	var first error
	for i := range recs {
		if err := v.consumeLocked(&recs[i]); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// WriteFrame implements Sink: a replay can stream directly into validation.
func (v *StreamValidator) WriteFrame(frame int, recs []Record) error {
	return v.ConsumeFrame(frame, recs)
}

// Flush implements Sink; the validator holds no buffered output.
func (v *StreamValidator) Flush() error { return nil }

// AddBytes accounts wire bytes received for this stream (the ingest service
// feeds it; purely informational).
func (v *StreamValidator) AddBytes(n int) {
	v.mu.Lock()
	v.bytes += n
	v.mu.Unlock()
}

// Records returns the number of records consumed so far.
func (v *StreamValidator) Records() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.records
}

// Bytes returns the wire bytes accounted via AddBytes.
func (v *StreamValidator) Bytes() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.bytes
}

// Frames returns the stream's frame count so far (max frame tag + 1, like
// Log.Frames).
func (v *StreamValidator) Frames() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.out.frames()
}

// Report computes the validation report from the rollups consumed so far —
// the streaming Validate. Safe to call repeatedly; the final call (after the
// last record) returns exactly what Validate would on the full log.
func (v *StreamValidator) Report() (*Report, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	edge := &Log{Records: v.retain.Records}
	return v.reportLocked(edge)
}

// reportLocked assembles the Report; edge is the log handed to assertions
// (the full log offline, the retained skeleton when streaming).
func (v *StreamValidator) reportLocked(edge *Log) (*Report, error) {
	agreement, err := v.out.agreement(v.ri)
	if err != nil {
		return nil, err
	}
	rep := &Report{OutputAgreement: agreement}

	if rep.OutputAgreement < v.opts.AgreementThreshold {
		if v.offline {
			// Deferred offline drift: agreement dropped, so the expensive
			// per-layer analysis is warranted — replay the layer records from
			// the full log, folded in log order exactly as streaming would
			// have. Validate reports once, so this runs once.
			v.layers.consumeLog(edge, v.ri)
		}
		diffs, err := v.layers.finalize()
		if err == nil {
			rep.LayerDiffs = diffs
			rep.Suspects = SuspectLayers(diffs, v.opts.NRMSEThreshold)
			if spike, ok := FirstSpike(diffs, v.opts.NRMSEThreshold, 3); ok {
				rep.Spike = &spike
			}
		}
		// Missing per-layer records is not fatal: assertions may still
		// explain the drop from boundary records alone.
	}
	rep.Stragglers = v.strag.finalize(v.opts.StragglerFactor)
	for _, s := range v.strag.vsReference(v.ri.lat, v.opts.StragglerFactor) {
		dup := false
		for _, have := range rep.Stragglers {
			if have == s {
				dup = true
			}
		}
		if !dup {
			rep.Stragglers = append(rep.Stragglers, s)
		}
	}

	ctx := &AssertCtx{Edge: edge, Ref: v.ri.ref, Report: rep}
	for _, a := range v.opts.Assertions {
		if f := a.Check(ctx); f != nil {
			rep.Findings = append(rep.Findings, *f)
		}
	}
	return rep, nil
}

// fleetAcc is what the fleet rollup reads from one session.
type fleetAcc struct {
	agree, total int
	mismatched   []int
}

// fleetAccLocked derives the device-vs-reference agreement tallies from the
// session's output state.
func (v *StreamValidator) fleetAccLocked() fleetAcc {
	var acc fleetAcc
	for frame, got := range v.out.arg {
		want, ok := v.ri.outArg[frame]
		if !ok {
			continue
		}
		acc.total++
		if got == want {
			acc.agree++
		} else {
			acc.mismatched = append(acc.mismatched, frame)
		}
	}
	sort.Ints(acc.mismatched)
	return acc
}

// FleetStreamValidator validates many concurrent device streams against one
// shared reference — the ingest service's server-side state. Each device
// stream gets a Session (a StreamValidator sharing the reference index);
// Report cross-validates the sessions exactly as the offline FleetValidate
// does on complete shard logs (FleetValidate delegates here), flagging the
// devices whose divergence isolates to them.
type FleetStreamValidator struct {
	mu       sync.Mutex
	ri       *refIndex
	opts     ValidateOptions
	sessions []*StreamValidator
	byName   map[string]*StreamValidator
}

// NewFleetStreamValidator indexes the reference log for fleet-wide streaming
// validation. It fails when the reference carries no decodable model outputs
// — nothing could ever be validated against it.
func NewFleetStreamValidator(ref *Log, opts ValidateOptions) (*FleetStreamValidator, error) {
	ri := newRefIndex(ref)
	if ri.outErr != nil {
		return nil, ri.outErr
	}
	if len(ri.outArg) == 0 {
		return nil, fmt.Errorf("core: reference log carries no model outputs")
	}
	return &FleetStreamValidator{ri: ri, opts: opts, byName: make(map[string]*StreamValidator)}, nil
}

// Session returns the named device's stream session, creating it on first
// use. Sessions are independent: concurrent streams from different devices
// consume without contending on the fleet state.
func (f *FleetStreamValidator) Session(device string) *StreamValidator {
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.byName[device]; ok {
		return s
	}
	s := f.newSessionLocked(device)
	f.byName[device] = s
	return s
}

// newSessionLocked always creates (FleetValidate keeps duplicate-named
// shards distinct; the by-name lookup is the ingest service's semantics).
func (f *FleetStreamValidator) newSessionLocked(device string) *StreamValidator {
	s := newSessionValidator(f.ri, f.opts, device)
	f.sessions = append(f.sessions, s)
	return s
}

// Remove drops the named device's session while keeping every other — the
// fleet half of session eviction: an ingest collector that evicts an idle
// device must also take it out of the fleet report, so a later resurrection
// replays into a fresh session instead of double-folding records into the
// stale one. Reports no session by that name without change.
func (f *FleetStreamValidator) Remove(device string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.byName[device]
	if !ok {
		return false
	}
	delete(f.byName, device)
	for i, candidate := range f.sessions {
		if candidate == s {
			f.sessions = append(f.sessions[:i], f.sessions[i+1:]...)
			break
		}
	}
	return true
}

// Reset drops every session while keeping the shared reference index — the
// fleet half of the replay seam: a recovering collector clears the fleet
// state and replays each device's durable log into fresh sessions without
// paying the reference re-index.
func (f *FleetStreamValidator) Reset() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.sessions = nil
	f.byName = make(map[string]*StreamValidator)
}

// Sessions returns the open sessions sorted by device name — the stable
// order the fleet report uses regardless of upload interleaving.
func (f *FleetStreamValidator) Sessions() []*StreamValidator {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := append([]*StreamValidator(nil), f.sessions...)
	sort.Slice(out, func(i, j int) bool { return out[i].device < out[j].device })
	return out
}

// Report cross-validates the sessions' streams, in device-name order — the
// streaming FleetValidate. Safe to call repeatedly while uploads continue.
func (f *FleetStreamValidator) Report() (*FleetReport, error) {
	return fleetReportFrom(f.Sessions(), f.opts)
}

// FleetLayerSnapshot is one layer accumulator of a session's drift analysis:
// running sums rather than finished means, so a merged report divides exactly
// once, in the shared finalizer, wherever the session lived. Snapshots list
// layers in first-seen order (the accumulation order), which keeps float
// summation order — and therefore the serialized report bytes — identical
// between a local report and a merge of exported snapshots.
type FleetLayerSnapshot struct {
	Key      string  `json:"key"`
	Index    int     `json:"index"`
	Name     string  `json:"name,omitempty"`
	OpType   string  `json:"op_type,omitempty"`
	SumNRMSE float64 `json:"sum_nrmse"`
	SumRMSE  float64 `json:"sum_rmse"`
	MaxAbs   float64 `json:"max_abs"`
	Frames   int     `json:"frames"`
}

// FleetSessionSnapshot is one device session's fleet-rollup state, exported:
// everything fleetReportFrom reads from a live session, carried as plain
// data. A sharded collector ships these over the wire (ingest's
// /fleet/export) and an aggregator recombines them with MergeFleetSnapshots;
// because Go's JSON encoding round-trips float64 exactly and the merge runs
// the same finalizer as a local Report, the merged report is byte-identical
// to a single collector holding every session.
type FleetSessionSnapshot struct {
	Device string `json:"device"`
	// OutputErr carries the session's sticky output decode error, if any —
	// the merge propagates it exactly as a local report would.
	OutputErr string `json:"output_err,omitempty"`
	// Agree/Total/Mismatched are the device-vs-reference agreement tallies
	// (fleetAcc), Mismatched sorted ascending.
	Agree      int   `json:"agree"`
	Total      int   `json:"total"`
	Mismatched []int `json:"mismatched,omitempty"`
	// Layers is empty when the session has no per-layer capture or its layer
	// analysis is poisoned — both cases a report skips identically.
	Layers []FleetLayerSnapshot `json:"layers,omitempty"`
	// InfSum/InfN accumulate KeyInferenceModeled for the latency column.
	InfSum float64 `json:"inf_sum"`
	InfN   int     `json:"inf_n"`
}

// fleetSnapshotLocked captures the session's fleet-rollup state. The error
// mirrors the session's sticky output decode error; the snapshot carries its
// message either way so a remote merge reports it identically.
func (v *StreamValidator) fleetSnapshotLocked() (FleetSessionSnapshot, error) {
	snap := FleetSessionSnapshot{Device: v.device}
	if err := v.out.argErr; err != nil {
		snap.OutputErr = err.Error()
		return snap, err
	}
	acc := v.fleetAccLocked()
	snap.Agree, snap.Total, snap.Mismatched = acc.agree, acc.total, acc.mismatched
	if v.layers.err == nil {
		for _, key := range v.layers.order {
			a := v.layers.accs[key]
			snap.Layers = append(snap.Layers, FleetLayerSnapshot{
				Key:      key,
				Index:    a.diff.Index,
				Name:     a.diff.Name,
				OpType:   a.diff.OpType,
				SumNRMSE: a.sumN,
				SumRMSE:  a.sumR,
				MaxAbs:   a.maxA,
				Frames:   a.n,
			})
		}
	}
	snap.InfSum, snap.InfN = v.infSum, v.infN
	return snap, nil
}

// FleetSnapshot exports the session's fleet-rollup state for aggregation
// elsewhere. Like Report, it is non-destructive and safe mid-stream.
func (v *StreamValidator) FleetSnapshot() FleetSessionSnapshot {
	v.mu.Lock()
	defer v.mu.Unlock()
	snap, _ := v.fleetSnapshotLocked()
	return snap
}

// Snapshots exports every session's fleet-rollup state in device-name order —
// the per-shard half of a sharded fleet report. MergeFleetSnapshots over the
// union of every shard's Snapshots equals the Report of one validator that
// had held all the sessions.
func (f *FleetStreamValidator) Snapshots() []FleetSessionSnapshot {
	sessions := f.Sessions()
	out := make([]FleetSessionSnapshot, 0, len(sessions))
	for _, s := range sessions {
		out = append(out, s.FleetSnapshot())
	}
	return out
}

// MergeFleetSnapshots assembles the fleet cross-validation from exported
// session snapshots, sorted by device name — the aggregator half of sharded
// ingest. Feeding it the concatenated Snapshots of N disjoint shards yields
// a report byte-identical (serialized) to a single collector's /fleet over
// the same devices: the snapshots carry accumulator sums, so every division
// and float fold happens once, here, in the same order a local report runs
// them.
func MergeFleetSnapshots(snaps []FleetSessionSnapshot, opts ValidateOptions) (*FleetReport, error) {
	ordered := append([]FleetSessionSnapshot(nil), snaps...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Device < ordered[j].Device })
	return fleetReportFromSnapshots(ordered, opts)
}

// fleetReportFrom assembles the fleet cross-validation over finished (or
// in-flight) sessions, in the order given — the shared finalizer behind
// FleetValidate and FleetStreamValidator.Report. It snapshots each session
// and delegates to the same merge the sharded aggregator uses, so local and
// merged reports cannot drift apart.
func fleetReportFrom(sessions []*StreamValidator, opts ValidateOptions) (*FleetReport, error) {
	if len(sessions) == 0 {
		return nil, fmt.Errorf("core: fleet validation needs at least one device shard")
	}
	snaps := make([]FleetSessionSnapshot, len(sessions))
	for d, s := range sessions {
		s.mu.Lock()
		snap, err := s.fleetSnapshotLocked()
		s.mu.Unlock()
		if err != nil {
			return nil, fmt.Errorf("core: device %q shard: %w", s.device, err)
		}
		snaps[d] = snap
	}
	return fleetReportFromSnapshots(snaps, opts)
}

func fleetReportFromSnapshots(snaps []FleetSessionSnapshot, opts ValidateOptions) (*FleetReport, error) {
	if len(snaps) == 0 {
		return nil, fmt.Errorf("core: fleet validation needs at least one device shard")
	}
	sumAgree, sumTotal := 0, 0
	for _, snap := range snaps {
		if snap.OutputErr != "" {
			return nil, fmt.Errorf("core: device %q shard: %s", snap.Device, snap.OutputErr)
		}
		sumAgree += snap.Agree
		sumTotal += snap.Total
	}
	if sumTotal == 0 {
		return nil, fmt.Errorf("core: fleet shards share no output frames with the reference")
	}

	rep := &FleetReport{FleetAgreement: float64(sumAgree) / float64(sumTotal)}
	for _, snap := range snaps {
		dr := FleetDeviceReport{Device: snap.Device, Frames: snap.Total}
		if snap.Total > 0 {
			dr.OutputAgreement = float64(snap.Agree) / float64(snap.Total)
		}
		// Drift rollup: per-layer normalized rMSE against the reference,
		// averaged over the shared layers. Streams without per-layer capture
		// (or with a poisoned layer analysis) skip it.
		if len(snap.Layers) > 0 {
			// Mean in Index order, matching layerDiffState.finalize's sorted
			// diff table, so the fold order (and the serialized float) is the
			// same whether the session was local or imported.
			ordered := append([]FleetLayerSnapshot(nil), snap.Layers...)
			sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Index < ordered[j].Index })
			sum := 0.0
			for _, l := range ordered {
				sum += l.SumNRMSE / float64(l.Frames)
			}
			dr.MeanNRMSE = sum / float64(len(ordered))
			dr.Layers = len(ordered)
		}
		// Latency rollup: modeled inference time, comparable across runs
		// (wall-clock is not).
		if snap.InfN > 0 {
			dr.MeanModeledNs = snap.InfSum / float64(snap.InfN)
		}
		// Cross-device divergence: does the rest of the fleet vouch for the
		// model on the frames this device got wrong? With no other frames
		// to consult (single-device fleets) the rest is vacuously healthy —
		// the report degrades to per-device validation.
		restAgree, restTotal := sumAgree-snap.Agree, sumTotal-snap.Total
		restHealthy := restTotal == 0 || float64(restAgree)/float64(restTotal) >= opts.AgreementThreshold
		if restHealthy && snap.Total > 0 {
			dr.Divergent = snap.Mismatched
			if dr.OutputAgreement < opts.AgreementThreshold {
				dr.Flagged = true
				rep.Flagged = append(rep.Flagged, snap.Device)
			}
		}
		rep.DivergentFrames = append(rep.DivergentFrames, dr.Divergent...)
		rep.Devices = append(rep.Devices, dr)
	}
	sort.Ints(rep.DivergentFrames)
	return rep, nil
}
