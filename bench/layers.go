package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strconv"
	"time"

	"mlexray/internal/core"
	"mlexray/internal/graph"
	"mlexray/internal/imaging"
	"mlexray/internal/ingest"
	"mlexray/internal/interp"
	"mlexray/internal/obs"
	"mlexray/internal/ops"
	"mlexray/internal/pipeline"
	"mlexray/internal/replay"
	"mlexray/internal/runner"
	"mlexray/internal/shard"
	"mlexray/internal/tensor"
	"mlexray/internal/zoo"
)

// layerMetrics declares every per-layer metric in ledger order. A traced
// run emits exactly these; BENCHMARK.json lists the same names and units.
var layerMetrics = []metricDecl{
	{"host.speed", "ratio"},
	{"trace_overhead_share", "ratio"},
	{"trace.spans_per_frame", "count"},
	{"trace.span_cost_ns", "ns"},
	{"latency.p99_ms", "ms"},
	{"imaging.resize_us", "us"},
	{"imaging.to_tensor_us", "us"},
	{"pipeline.preprocess_us", "us"},
	{"pipeline.classify_us", "us"},
	{"pipeline.classify_batch8_us", "us"},
	{"interp.invoke_float_us", "us"},
	{"interp.invoke_int8_us", "us"},
	{"interp.invoke_ref_us", "us"},
	{"interp.invoke_batch8_us", "us"},
	{"interp.hook_overhead_us", "us"},
	{"interp.invoke_allocs", "count"},
	{"interp.arena_kb", "KiB"},
	{"ops.conv_us", "us"},
	{"ops.depthwise_us", "us"},
	{"ops.dense_us", "us"},
	{"ops.other_us", "us"},
	{"ops.conv_int8_us", "us"},
	{"ops.depthwise_int8_us", "us"},
	{"ops.float_tiled_us", "us"},
	{"ops.int8_tiled_us", "us"},
	{"ops.macs_per_frame", "count"},
	{"core.monitor_capture_us", "us"},
	{"core.monitor_records", "count"},
	{"core.encode_jsonl_us", "us"},
	{"core.preencode_jsonl_us", "us"},
	{"core.encode_binary_us", "us"},
	{"core.decode_jsonl_us", "us"},
	{"core.decode_binary_us", "us"},
	{"core.log_bytes_jsonl", "B"},
	{"core.log_bytes_binary", "B"},
	{"core.stream_consume_us", "us"},
	{"core.stream_report_us", "us"},
	{"core.validate_offline_us", "us"},
	{"core.fleet_merge_us", "us"},
	{"runner.overhead_us", "us"},
	{"replay.start_us", "us"},
	{"runner.batch8_gain", "ratio"},
	{"runner.allcores_scale", "ratio"},
	{"ingest.sink_write_us", "us"},
	{"ingest.sink_gzip_us", "us"},
	{"ingest.wire_bytes", "B"},
	{"ingest.wire_bytes_gzip", "B"},
	{"ingest.handle_us", "us"},
	{"ingest.handle_alloc_kb", "KiB"},
	{"ingest.http_hop_us", "us"},
	{"ingest.device_report_us", "us"},
	{"ingest.fleet_report_us", "us"},
	{"ingest.retries", "count"},
	{"ingest.wal_append_us", "us"},
	{"ingest.wal_fsyncs_per_chunk", "count"},
	{"ingest.wal_bytes_per_frame", "B"},
	{"ingest.recovery_us", "us"},
	{"shard.ring_owner_ns", "ns"},
	{"shard.gateway_hop_us", "us"},
	{"shard.fleet_merge_us", "us"},
	{"obs.ingest_overhead_share", "ratio"},
	{"obs.scrape_us", "us"},
}

// ledgerFrames caps how many of the workload's frames the capture-based
// probes (codec, validator, ingest, shard) use: a full-capture frame is
// ~130 KB, and 63 of them fill exactly seven default-size chunks.
const ledgerFrames = 63

// overheadShare is the part of a traced run's time spent measuring what the
// spans cost on the workload itself; the probes' timed loops split the rest.
const overheadShare = 0.3

// ledgerLoops is how many ways the probes' time is split. They run about 35
// timed loops; the few whose single call is long (a 256-frame replay, a
// gzip upload) overrun their share, and the divisor leaves room for that.
const ledgerLoops = 45

// ledger holds the inputs the probes share and collects their results.
type ledger struct {
	workload string
	images   []*imaging.Image
	entry    *zoo.Entry
	preproc  pipeline.ImagePreproc
	inputs   []*tensor.Tensor // preprocessed leading frames
	edge     *core.Log        // full capture of the leading frames, as the workload deploys
	ref      *core.Log        // the reference pipeline's capture of the same frames
	groups   [][]core.Record
	tmp      string
	tr       *tracer
	per      time.Duration // time each timed loop may spend
	minCalls int           // calls each timed loop makes at least
	values   map[string]series
	checks   recorder
	// untracedLat pools the latency samples of the untraced rounds, for the
	// informational tail percentile; hostSpeeds are the host's speed after
	// each pass of every round.
	untracedLat []time.Duration
	hostSpeeds  []float64
	// spansPerFrame is how many spans the traced rounds recorded per frame.
	spansPerFrame float64
}

func (l *ledger) set(name string, value float64, n int) {
	l.values[name] = series{Name: name, Value: value, N: n, Min: value, Max: value}
}

// sample is a probe's timings of one repeated call.
type sample []time.Duration

// us is the sample's median in microseconds.
func (s sample) us() float64 {
	xs := make([]float64, len(s))
	for i, d := range s {
		xs[i] = float64(d) / float64(time.Microsecond)
	}
	return median(xs)
}

// loop calls f until the probe's time is spent (at least minCalls times) and
// returns each call's duration divided by the units it covered. f times
// itself so that its own preparation stays out.
func (l *ledger) loop(f func(i int) (d time.Duration, units int, err error)) (sample, error) {
	var s sample
	start := time.Now()
	for i := 0; i < l.minCalls || time.Since(start) < l.per; i++ {
		d, units, err := f(i)
		if err != nil {
			return nil, err
		}
		s = append(s, d/time.Duration(units))
	}
	return s, nil
}

// timed is a loop over a call that needs no preparation.
func (l *ledger) timed(units int, f func(i int) error) (sample, error) {
	return l.loop(func(i int) (time.Duration, int, error) {
		start := time.Now()
		err := f(i)
		return time.Since(start), units, err
	})
}

func (l *ledger) image(i int) *imaging.Image     { return l.images[i%len(l.images)] }
func (l *ledger) input(i int) *tensor.Tensor     { return l.inputs[i%len(l.inputs)] }
func (l *ledger) frames() int                    { return len(l.groups) }
func (l *ledger) validate() core.ValidateOptions { return core.DefaultValidateOptions() }

// measureLayers is the traced run: what the spans cost on the workload, then
// every layer's probes on the workload's frames.
func measureLayers(w workload, e *env, seconds float64, outDir string) (*measurement, error) {
	tr := newTracer()
	l := &ledger{workload: w.name, tmp: e.tmp, tr: tr, values: map[string]series{}}
	m := &measurement{Workload: w.name, Traced: true}

	setupRec := &recorder{}
	inst, _, err := setUp(w, e, setupRec, 1)
	if err != nil {
		return nil, err
	}
	share, passes, err := l.traceOverhead(inst, seconds*overheadShare, e.quick)
	inst.close()
	if err != nil {
		return nil, fmt.Errorf("%s traced: %w", w.name, err)
	}
	m.Passes, m.Frames = passes, inst.framesPerPass()
	l.set("trace_overhead_share", share, passes)
	l.set("trace.spans_per_frame", l.spansPerFrame, passes)
	l.set("trace.span_cost_ns", spanCost(e.quick), 1)
	slices.Sort(l.untracedLat)
	l.set("latency.p99_ms", percentileMs(l.untracedLat, 0.99), len(l.untracedLat))

	if err := l.prepare(w, e, m.Frames); err != nil {
		return nil, fmt.Errorf("%s ledger inputs: %w", w.name, err)
	}
	probes := []func() error{
		l.probeDecomposed, l.probePipeline, l.probeInterp, l.probeKernels, l.probeMonitor,
		l.probeCodec, l.probeValidator, l.probeRunner, l.probeSink, l.probeHandle,
		l.probeDurable, l.probeShard,
	}
	l.per, l.minCalls = time.Duration(seconds*(1-overheadShare)/ledgerLoops*float64(time.Second)), 3
	if e.quick {
		l.per, l.minCalls = 0, 1
	}
	// The ledger's timings are as the clock read them; host.speed, sampled
	// after every pass above and every probe here, says how fast the host was.
	for _, p := range probes {
		if err := p(); err != nil {
			return nil, fmt.Errorf("%s ledger: %w", w.name, err)
		}
		l.hostSpeeds = append(l.hostSpeeds, hostSpeed(l.per/10))
	}
	l.set("host.speed", median(l.hostSpeeds), len(l.hostSpeeds))

	for _, d := range layerMetrics {
		s, ok := l.values[d.name]
		if !ok {
			return nil, fmt.Errorf("%s ledger: %s was not measured", w.name, d.name)
		}
		s.Unit = d.unit
		m.Series = append(m.Series, s)
	}
	setupRec.merge(&l.checks)
	m.Attempted, m.Failed, m.Failure = setupRec.attempted, setupRec.failed, setupRec.firstFailure
	path, err := tr.write(outDir, w.name, e.quick)
	if err != nil {
		return nil, err
	}
	m.TracePath, m.SelfTime = path, selfByName(tr.spans)
	return m, nil
}

// traceOverhead alternates short untraced and traced rounds of the real
// workload and returns the share of throughput the spans cost: the median,
// over neighbouring pairs, of how much slower the traced round ran, both at
// the nominal host speed.
func (l *ledger) traceOverhead(inst instance, seconds float64, quick bool) (share float64, passes int, err error) {
	pairs := 6
	if quick {
		pairs = 1
	}
	d := time.Duration(seconds / float64(2*pairs) * float64(time.Second))
	var slower []float64
	spans, frames := 0, 0
	for i := 0; i < pairs; i++ {
		var fps [2]float64
		for j, tr := range []*tracer{nil, l.tr} {
			r := &recorder{tr: tr}
			before := l.tr.recorded()
			s, err := runRound(inst, r, d, &passes)
			if err != nil {
				return 0, 0, err
			}
			fps[j] = s.fps()
			if tr != nil {
				spans, frames = spans+l.tr.recorded()-before, frames+s.frames
			}
			if tr == nil {
				l.untracedLat = append(l.untracedLat, r.lat...)
			}
			for _, p := range r.passes {
				l.hostSpeeds = append(l.hostSpeeds, p.speed)
			}
			l.checks.merge(r)
		}
		slower = append(slower, 1-fps[1]/fps[0])
	}
	l.spansPerFrame = float64(spans) / float64(frames)
	return median(slower), passes, nil
}

// spanCost is what recording one span costs, timed on a tracer of its own.
// With trace.spans_per_frame it bounds the spans' cost by arithmetic, where
// trace_overhead_share, a difference of two noisy rates, cannot resolve it.
func spanCost(quick bool) float64 {
	n := 200000
	if quick {
		n = 1000
	}
	t := newTracer()
	start := time.Now()
	for i := 0; i < n; i++ {
		t.start(open{}, "cost", "span").end()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// prepare builds the probes' shared inputs: the workload's own frames (the
// same seed and count), and captures of the leading ones.
func (l *ledger) prepare(w workload, e *env, frames int) error {
	var err error
	if l.entry, err = zoo.Get(modelName); err != nil {
		return err
	}
	l.images = synthImages(e.seed, frames)
	meta := l.entry.Mobile.Meta
	if l.preproc, err = pipeline.CorrectImagePreproc(meta); err != nil {
		return err
	}
	lead := l.images[:min(len(l.images), ledgerFrames)]
	if e.quick {
		lead = lead[:min(len(lead), 4)]
	}
	for _, im := range lead {
		l.inputs = append(l.inputs, pipeline.PreprocessImage(im, meta, l.preproc))
	}
	// The edge log is what the workload's deployment captures: the int8
	// model under the historical kernels for exray_quant, the float model
	// otherwise.
	ropts := runner.Options{Workers: 1, BatchFrames: batchFrames, MonitorOptions: fullCapture()}
	if w.name == "exray_quant" {
		l.edge, err = replay.Classification(l.entry.Quant, pipeline.Options{Resolver: ops.NewOptimized(ops.Historical())}, lead, ropts, nil)
	} else {
		l.edge, err = replay.Classification(l.entry.Mobile, edgeOptions(), lead, ropts, nil)
	}
	if err != nil {
		return err
	}
	l.ref, err = replay.Classification(l.entry.Mobile, pipeline.Options{Resolver: ops.NewReference(ops.Fixed())}, lead, ropts, nil)
	l.groups = frameGroups(l.edge)
	return err
}

// ---- imaging, and the decomposed frame ---------------------------------

// opClass folds an op type into the ledger's four kernel classes.
func opClass(op graph.OpType) string {
	switch op {
	case graph.OpConv2D:
		return "conv"
	case graph.OpDepthwiseConv2D:
		return "depthwise"
	case graph.OpDense:
		return "dense"
	}
	return "other"
}

// byClass sums one invoke's per-node time per kernel class; its hook is the
// paper's Table 4 taken live.
type byClass struct {
	sum  map[string]time.Duration
	macs int64
	// span, when set, records each node as a child span ending now.
	span func(class string, d time.Duration)
}

func (b *byClass) hook(ev interp.NodeEvent) {
	class := opClass(ev.Node.Op)
	b.sum[class] += ev.Measured
	b.macs += ev.Cost.MACs
	if b.span != nil {
		b.span(class, ev.Measured)
	}
}

func (b *byClass) reset() { b.sum, b.macs = map[string]time.Duration{}, 0 }

// probeDecomposed runs the uninstrumented frame as the calls the pipeline
// makes — resize, to-tensor, set-input, invoke — each under its own span,
// with the interpreter's per-node times as the invoke's children.
func (l *ledger) probeDecomposed() error {
	meta := l.entry.Mobile.Meta
	classes := &byClass{}
	ip, err := interp.New(l.entry.Mobile, ops.NewOptimized(ops.Fixed()), interp.WithHook(classes.hook))
	if err != nil {
		return err
	}
	trace := l.workload + "/decomposed"
	var resize, toTensor sample
	perClass := map[string]sample{}
	var macs int64
	start := time.Now()
	for i := 0; i < l.minCalls || time.Since(start) < 2*l.per; i++ {
		frame := l.tr.start(open{}, trace, "frame")
		t0 := time.Now()
		sp := l.tr.startAt(frame, trace, "imaging.resize", t0)
		resized := imaging.Resize(l.image(i), meta.InputW, meta.InputH, l.preproc.Resize)
		t1 := time.Now()
		sp.endAt(t1)
		sp = l.tr.startAt(frame, trace, "imaging.to_tensor", t1)
		in := imaging.ToTensor(resized, l.preproc.Norm)
		t2 := time.Now()
		sp.endAt(t2)
		resize, toTensor = append(resize, t1.Sub(t0)), append(toTensor, t2.Sub(t1))

		sp = l.tr.startAt(frame, trace, "interp.set_input", t2)
		err := ip.SetInput(0, in)
		sp.end()
		if err != nil {
			return err
		}
		classes.reset()
		inv := l.tr.start(frame, trace, "interp.invoke")
		classes.span = func(class string, d time.Duration) { l.tr.add(inv, trace, "ops."+class, time.Now(), d) }
		err = ip.Invoke()
		inv.end()
		frame.end()
		if err != nil {
			return err
		}
		for _, c := range []string{"conv", "depthwise", "dense", "other"} {
			perClass[c] = append(perClass[c], classes.sum[c])
		}
		macs = classes.macs
	}
	l.set("imaging.resize_us", resize.us(), len(resize))
	l.set("imaging.to_tensor_us", toTensor.us(), len(toTensor))
	for c, s := range perClass {
		l.set("ops."+c+"_us", s.us(), len(s))
	}
	l.set("ops.macs_per_frame", float64(macs), 1)
	return nil
}

// ---- pipeline ----------------------------------------------------------

func (l *ledger) probePipeline() error {
	m := l.entry.Mobile
	pre, err := l.timed(1, func(i int) error {
		pipeline.PreprocessImage(l.image(i), m.Meta, l.preproc)
		return nil
	})
	if err != nil {
		return err
	}
	cl, err := pipeline.NewClassifier(m, edgeOptions())
	if err != nil {
		return err
	}
	one, err := l.timed(1, func(i int) error {
		_, _, err := cl.Classify(l.image(i))
		return err
	})
	if err != nil {
		return err
	}
	bc, err := pipeline.NewBatchClassifier(m, batchFrames, edgeOptions())
	if err != nil {
		return err
	}
	batch := make([]*imaging.Image, batchFrames)
	eight, err := l.timed(batchFrames, func(i int) error {
		for j := range batch {
			batch[j] = l.image(i*batchFrames + j)
		}
		_, err := bc.ClassifyBatch(batch)
		return err
	})
	l.set("pipeline.preprocess_us", pre.us(), len(pre))
	l.set("pipeline.classify_us", one.us(), len(one))
	l.set("pipeline.classify_batch8_us", eight.us(), len(eight))
	return err
}

// ---- interp and ops ----------------------------------------------------

// invoke times Interpreter.Invoke alone on the preprocessed frames.
func (l *ledger) invoke(m *graph.Model, res *ops.Resolver, opts ...interp.Option) (sample, *interp.Interpreter, error) {
	ip, err := interp.New(m, res, opts...)
	if err != nil {
		return nil, nil, err
	}
	s, err := l.loop(func(i int) (time.Duration, int, error) {
		if err := ip.SetInput(0, l.input(i)); err != nil {
			return 0, 1, err
		}
		start := time.Now()
		err := ip.Invoke()
		return time.Since(start), 1, err
	})
	return s, ip, err
}

func (l *ledger) probeInterp() error {
	float, ip, err := l.invoke(l.entry.Mobile, ops.NewOptimized(ops.Fixed()))
	if err != nil {
		return err
	}
	l.set("interp.invoke_float_us", float.us(), len(float))
	l.set("interp.arena_kb", float64(ip.ArenaBytes()+ip.ScratchBytes())/1024, 1)

	// Steady-state Invoke must not allocate.
	const invokes = 50
	before := snapshot()
	for i := 0; i < invokes; i++ {
		if err := ip.Invoke(); err != nil {
			return err
		}
	}
	l.set("interp.invoke_allocs", float64(snapshot().mallocs-before.mallocs)/invokes, invokes)

	hooked, _, err := l.invoke(l.entry.Mobile, ops.NewOptimized(ops.Fixed()), interp.WithHook(func(interp.NodeEvent) {}))
	if err != nil {
		return err
	}
	l.set("interp.hook_overhead_us", hooked.us()-float.us(), len(hooked))

	int8s, _, err := l.invoke(l.entry.Quant, ops.NewOptimized(ops.Historical()))
	if err != nil {
		return err
	}
	l.set("interp.invoke_int8_us", int8s.us(), len(int8s))
	ref, _, err := l.invoke(l.entry.Mobile, ops.NewReference(ops.Fixed()))
	if err != nil {
		return err
	}
	l.set("interp.invoke_ref_us", ref.us(), len(ref))

	bp, err := interp.NewBatch(l.entry.Mobile, batchFrames, ops.NewOptimized(ops.Fixed()))
	if err != nil {
		return err
	}
	batch, err := l.loop(func(i int) (time.Duration, int, error) {
		for e := 0; e < batchFrames; e++ {
			if err := bp.SetInputElem(0, e, l.input(i*batchFrames+e)); err != nil {
				return 0, 1, err
			}
		}
		start := time.Now()
		err := bp.Invoke()
		return time.Since(start), batchFrames, err
	})
	l.set("interp.invoke_batch8_us", batch.us(), len(batch))
	return err
}

// probeKernels splits the int8 invoke by kernel class and sizes the tiled
// backend against the default on both models.
func (l *ledger) probeKernels() error {
	classes := &byClass{}
	perClass := map[string]sample{}
	ip, err := interp.New(l.entry.Quant, ops.NewOptimized(ops.Historical()), interp.WithHook(classes.hook))
	if err != nil {
		return err
	}
	if _, err := l.loop(func(i int) (time.Duration, int, error) {
		if err := ip.SetInput(0, l.input(i)); err != nil {
			return 0, 1, err
		}
		classes.reset()
		err := ip.Invoke()
		for _, c := range []string{"conv", "depthwise"} {
			perClass[c] = append(perClass[c], classes.sum[c])
		}
		return 0, 1, err
	}); err != nil {
		return err
	}
	l.set("ops.conv_int8_us", perClass["conv"].us(), len(perClass["conv"]))
	l.set("ops.depthwise_int8_us", perClass["depthwise"].us(), len(perClass["depthwise"]))

	tiled, _, err := l.invoke(l.entry.Mobile, ops.NewOptimized(ops.Fixed()), interp.WithBackend(ops.BackendTiled))
	if err != nil {
		return err
	}
	l.set("ops.float_tiled_us", tiled.us(), len(tiled))
	tiled8, _, err := l.invoke(l.entry.Quant, ops.NewOptimized(ops.Historical()), interp.WithBackend(ops.BackendTiled))
	l.set("ops.int8_tiled_us", tiled8.us(), len(tiled8))
	return err
}

// ---- core: monitor, codecs, validators ---------------------------------

func (l *ledger) probeMonitor() error {
	bare, err := pipeline.NewClassifier(l.entry.Mobile, edgeOptions())
	if err != nil {
		return err
	}
	mon := core.NewMonitor(fullCapture()...)
	opts := edgeOptions()
	opts.Monitor = mon
	inst, err := pipeline.NewClassifier(l.entry.Mobile, opts)
	if err != nil {
		return err
	}
	var plain, captured sample
	records := 0
	// Interleaved, so the difference is between neighbours in time.
	_, err = l.loop(func(i int) (time.Duration, int, error) {
		t0 := time.Now()
		if _, _, err := bare.Classify(l.image(i)); err != nil {
			return 0, 1, err
		}
		t1 := time.Now()
		_, _, err := inst.Classify(l.image(i))
		records = len(mon.Drain())
		t2 := time.Now()
		plain, captured = append(plain, t1.Sub(t0)), append(captured, t2.Sub(t1))
		return 0, 1, err
	})
	l.set("core.monitor_capture_us", captured.us()-plain.us(), len(captured))
	l.set("core.monitor_records", float64(records), 1)
	return err
}

func (l *ledger) probeCodec() error {
	group := func(i int) []core.Record { return l.groups[i%len(l.groups)] }
	for _, c := range []struct {
		name   string
		format core.LogFormat
	}{{"jsonl", core.FormatJSONL}, {"binary", core.FormatBinary}} {
		enc, err := core.NewLogEncoder(io.Discard, c.format)
		if err != nil {
			return err
		}
		encode, err := l.timed(1, func(i int) error {
			recs := group(i)
			for j := range recs {
				if err := enc.EncodeRecord(&recs[j]); err != nil {
					return err
				}
			}
			return enc.Flush()
		})
		if err != nil {
			return err
		}
		l.set("core.encode_"+c.name+"_us", encode.us(), len(encode))

		var buf bytes.Buffer
		if err := l.edge.Write(&buf, c.format); err != nil {
			return err
		}
		data := buf.Bytes()
		l.set("core.log_bytes_"+c.name, float64(len(data))/float64(l.frames()), 1)
		decode, err := l.timed(l.frames(), func(int) error {
			dec, _, err := core.OpenLog(bytes.NewReader(data))
			if err != nil {
				return err
			}
			for {
				if _, err := dec.Next(); errors.Is(err, io.EOF) {
					return nil
				} else if err != nil {
					return err
				}
			}
		})
		if err != nil {
			return err
		}
		l.set("core.decode_"+c.name+"_us", decode.us(), len(decode))
	}
	sink := core.NewJSONLSink(io.Discard)
	pre, err := l.timed(1, func(i int) error {
		_, err := sink.PreEncodeFrame(group(i))
		return err
	})
	l.set("core.preencode_jsonl_us", pre.us(), len(pre))
	return err
}

func (l *ledger) probeValidator() error {
	sv := core.NewStreamValidator(l.ref, l.validate())
	var report sample
	consume, err := l.loop(func(int) (time.Duration, int, error) {
		sv.Reset()
		start := time.Now()
		for _, recs := range l.groups {
			if err := sv.ConsumeFrame(recs[0].Frame, recs); err != nil {
				return 0, 1, err
			}
		}
		d := time.Since(start)
		start = time.Now()
		_, err := sv.Report()
		report = append(report, time.Since(start))
		return d, l.frames(), err
	})
	if err != nil {
		return err
	}
	l.set("core.stream_consume_us", consume.us(), len(consume))
	l.set("core.stream_report_us", report.us(), len(report))

	offline, err := l.timed(l.frames(), func(int) error {
		_, err := core.Validate(l.edge, l.ref, l.validate())
		return err
	})
	if err != nil {
		return err
	}
	l.set("core.validate_offline_us", offline.us(), len(offline))

	const sessions = 3
	fv, err := core.NewFleetStreamValidator(l.ref, l.validate())
	if err != nil {
		return err
	}
	for d := 0; d < sessions; d++ {
		s := fv.Session(fmt.Sprintf("d%d", d))
		for _, recs := range l.groups {
			if err := s.ConsumeFrame(recs[0].Frame, recs); err != nil {
				return err
			}
		}
	}
	snaps := fv.Snapshots()
	merge, err := l.timed(len(snaps), func(int) error {
		_, err := core.MergeFleetSnapshots(snaps, l.validate())
		return err
	})
	l.set("core.fleet_merge_us", merge.us(), len(merge))
	return err
}

// ---- runner and replay -------------------------------------------------

// replayFPS is the throughput of one uninstrumented replay of the images.
func replayFPS(m *graph.Model, images []*imaging.Image, workers, batch int) (float64, error) {
	start := time.Now()
	_, err := replay.Classification(m, edgeOptions(), images, runner.Options{Workers: workers, BatchFrames: batch}, nil)
	return float64(len(images)) / time.Since(start).Seconds(), err
}

func (l *ledger) probeRunner() error {
	m := l.entry.Mobile
	images := l.images[:min(len(l.images), 256)]
	cl, err := pipeline.NewClassifier(m, edgeOptions())
	if err != nil {
		return err
	}
	var direct, engine, batched, allCores []float64
	if _, err := l.loop(func(int) (time.Duration, int, error) {
		start := time.Now()
		for _, im := range images {
			if _, _, err := cl.Classify(im); err != nil {
				return 0, 1, err
			}
		}
		direct = append(direct, float64(len(images))/time.Since(start).Seconds())
		for _, c := range []struct {
			workers, batch int
			into           *[]float64
		}{{1, 1, &engine}, {1, batchFrames, &batched}, {0, 1, &allCores}} {
			fps, err := replayFPS(m, images, c.workers, c.batch)
			if err != nil {
				return 0, 1, err
			}
			*c.into = append(*c.into, fps)
		}
		return 0, 1, nil
	}); err != nil {
		return err
	}
	l.set("runner.overhead_us", 1e6/median(engine)-1e6/median(direct), len(engine))
	l.set("runner.batch8_gain", median(batched)/median(engine), len(batched))
	l.set("runner.allcores_scale", median(allCores)/median(engine), len(allCores))

	start, err := l.timed(1, func(int) error {
		base, err := pipeline.NewClassifier(m, edgeOptions())
		if err != nil {
			return err
		}
		_, err = base.Clone(nil)
		return err
	})
	l.set("replay.start_us", start.us(), len(start))
	return err
}

// ---- ingest ------------------------------------------------------------

// chunkTap is a transport that answers 200 without a network: it prices the
// sink alone and keeps the chunks it was handed.
type chunkTap struct{ chunks [][]byte }

func (t *chunkTap) RoundTrip(req *http.Request) (*http.Response, error) {
	body, err := io.ReadAll(req.Body)
	if err != nil {
		return nil, err
	}
	t.chunks = append(t.chunks, body)
	return &http.Response{StatusCode: http.StatusOK, Body: http.NoBody, Header: http.Header{}, Request: req}, nil
}

// sinkPass streams the edge log through a new RemoteSink into tap.
func (l *ledger) sinkPass(tap *chunkTap, gz bool) (d time.Duration, wire int, err error) {
	sink, err := ingest.NewRemoteSink(ingest.SinkOptions{
		URL: "http://collector.invalid", Device: "probe", Format: core.FormatBinary, Gzip: gz,
		Client: &http.Client{Transport: tap},
	})
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	for _, recs := range l.groups {
		if err := sink.WriteFrame(recs[0].Frame, recs); err != nil {
			return 0, 0, err
		}
	}
	err = sink.Flush()
	return time.Since(start), sink.Bytes(), err
}

// chunks returns the edge log as the binary chunk bodies a sink ships.
func (l *ledger) chunks() ([][]byte, error) {
	tap := &chunkTap{}
	_, _, err := l.sinkPass(tap, false)
	return tap.chunks, err
}

func (l *ledger) probeSink() error {
	for _, c := range []struct {
		gz          bool
		time, bytes string
	}{{false, "ingest.sink_write_us", "ingest.wire_bytes"}, {true, "ingest.sink_gzip_us", "ingest.wire_bytes_gzip"}} {
		wire := 0
		s, err := l.loop(func(int) (time.Duration, int, error) {
			d, n, err := l.sinkPass(&chunkTap{}, c.gz)
			wire = n
			return d, l.frames(), err
		})
		if err != nil {
			return err
		}
		l.set(c.time, s.us(), len(s))
		l.set(c.bytes, float64(wire)/float64(l.frames()), 1)
	}
	return nil
}

// postChunk hands one chunk to a handler in-process, as the sink's POST
// would arrive, and returns how long the handler took.
func postChunk(h http.Handler, device string, idx int, body []byte) (time.Duration, error) {
	req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body))
	req.Header.Set("X-MLEXray-Device", device)
	req.Header.Set("X-MLEXray-Chunk", strconv.Itoa(idx))
	req.Header.Set("X-MLEXray-Stream", "probe")
	rr := httptest.NewRecorder()
	start := time.Now()
	h.ServeHTTP(rr, req)
	d := time.Since(start)
	if rr.Code != http.StatusOK {
		return d, fmt.Errorf("in-process chunk %d for %s: %d %s", idx, device, rr.Code, bytes.TrimSpace(rr.Body.Bytes()))
	}
	return d, nil
}

// get serves one GET in-process and returns how long the handler took.
func get(h http.Handler, path string) (time.Duration, error) {
	rr := httptest.NewRecorder()
	start := time.Now()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, path, nil))
	d := time.Since(start)
	if rr.Code != http.StatusOK {
		return d, fmt.Errorf("in-process GET %s: %d", path, rr.Code)
	}
	return d, nil
}

// handleLoop feeds the chunks to srv as a new device per pass and returns
// the per-chunk handler times.
func (l *ledger) handleLoop(srv *ingest.Server, chunks [][]byte, prefix string, passes int) (sample, error) {
	var s sample
	for p := 0; p < passes; p++ {
		for idx, body := range chunks {
			d, err := postChunk(srv, prefix+strconv.Itoa(p), idx, body)
			if err != nil {
				return nil, err
			}
			s = append(s, d)
		}
	}
	return s, nil
}

func (l *ledger) probeHandle() error {
	chunks, err := l.chunks()
	if err != nil {
		return err
	}
	newServer := func(disableMetrics bool) (*ingest.Server, error) {
		return ingest.NewServer(ingest.ServerOptions{Ref: l.ref, DisableMetrics: disableMetrics})
	}
	srv, err := newServer(false)
	if err != nil {
		return err
	}
	defer srv.Close()
	bare, err := newServer(true)
	if err != nil {
		return err
	}
	defer bare.Close()

	warm, err := l.handleLoop(srv, chunks, "warm-", 1)
	if err != nil {
		return err
	}
	var total time.Duration
	for _, d := range warm {
		total += d
	}
	// Metrics on and off take turns in blocks of passes: long enough that
	// each collector runs with its own state in cache, short enough that
	// the overhead share compares neighbours in time.
	const blocks = 4
	passes := max(1, int(4*l.per/total)/(2*blocks))
	var on, off sample
	var alloc uint64
	for b := 0; b < blocks; b++ {
		before := snapshot()
		s, err := l.handleLoop(srv, chunks, "on-"+strconv.Itoa(b)+"-", passes)
		if err != nil {
			return err
		}
		alloc += snapshot().alloc - before.alloc
		on = append(on, s...)
		if s, err = l.handleLoop(bare, chunks, "off-"+strconv.Itoa(b)+"-", passes); err != nil {
			return err
		}
		off = append(off, s...)
	}
	l.set("ingest.handle_us", on.us(), len(on))
	l.set("ingest.handle_alloc_kb", float64(alloc)/1024/float64(blocks*passes*l.frames()), blocks*passes)
	l.set("obs.ingest_overhead_share", on.us()/off.us()-1, len(off))

	report, err := l.loop(func(int) (time.Duration, int, error) {
		d, err := get(srv, "/devices/warm-0")
		return d, 1, err
	})
	if err != nil {
		return err
	}
	l.set("ingest.device_report_us", report.us(), len(report))
	fleet, err := l.loop(func(int) (time.Duration, int, error) {
		d, err := get(srv, "/fleet")
		return d, 1, err
	})
	if err != nil {
		return err
	}
	l.set("ingest.fleet_report_us", fleet.us(), len(fleet))
	scrape, err := l.timed(1, func(int) error { return srv.Metrics().WritePrometheus(io.Discard) })
	if err != nil {
		return err
	}
	l.set("obs.scrape_us", scrape.us(), len(scrape))

	// The hop: the same bodies POSTed over loopback to a handler that only
	// drains them.
	drain := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
	}))
	defer drain.Close()
	hop, err := l.loop(func(i int) (time.Duration, int, error) {
		d, err := postOver(drain.Client(), drain.URL, "hop", i, chunks[i%len(chunks)])
		return d, 1, err
	})
	if err != nil {
		return err
	}
	l.set("ingest.http_hop_us", hop.us(), len(hop))

	// Retries are counted on real uploads: sink, loopback, collector.
	live := httptest.NewServer(srv)
	defer live.Close()
	retries := 0
	for p := 0; p < 2; p++ {
		sink, err := uploadAll(live.URL, "live-"+strconv.Itoa(p), live.Client(), l.groups)
		if err != nil {
			return err
		}
		retries += sink.Retries()
	}
	l.set("ingest.retries", float64(retries), 2)
	return nil
}

// postOver POSTs one chunk over a real connection and returns the
// round-trip time.
func postOver(c *http.Client, url, device string, idx int, body []byte) (time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, url+"/ingest", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("X-MLEXray-Device", device)
	req.Header.Set("X-MLEXray-Chunk", strconv.Itoa(idx))
	req.Header.Set("X-MLEXray-Stream", "probe")
	start := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	d := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		return d, fmt.Errorf("POST chunk %d for %s: %d", idx, device, resp.StatusCode)
	}
	return d, nil
}

// probeDurable prices the write-ahead log: the same in-process chunks into a
// collector with a DataDir, against one without. The disk under a sandbox
// is not a measurable device, so the timings are informational; the fsync
// and byte counts are exact.
func (l *ledger) probeDurable() error {
	chunks, err := l.chunks()
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(l.tmp, "wal-")
	if err != nil {
		return err
	}
	durable, err := ingest.NewServer(ingest.ServerOptions{Ref: l.ref, DataDir: dir})
	if err != nil {
		return err
	}
	defer func() { durable.Close() }()
	memory, err := ingest.NewServer(ingest.ServerOptions{Ref: l.ref})
	if err != nil {
		return err
	}
	defer memory.Close()

	const passes = 3
	var onDisk, inMemory sample
	for p := 0; p < passes; p++ {
		device := "dev-" + strconv.Itoa(p) + "-"
		s, err := l.handleLoop(durable, chunks, device, 1)
		if err != nil {
			return err
		}
		onDisk = append(onDisk, s...)
		if s, err = l.handleLoop(memory, chunks, device, 1); err != nil {
			return err
		}
		inMemory = append(inMemory, s...)
	}
	l.set("ingest.wal_append_us", onDisk.us()-inMemory.us(), len(onDisk))

	var text bytes.Buffer
	if err := durable.Metrics().WritePrometheus(&text); err != nil {
		return err
	}
	parsed, err := obs.ParseText(text.Bytes())
	if err != nil {
		return err
	}
	applied := obs.SumSeries(parsed, "mlexray_ingest_chunks_total")
	l.set("ingest.wal_fsyncs_per_chunk", obs.SumSeries(parsed, "mlexray_wal_fsync_seconds_count")/applied, int(applied))
	l.checks.check(int(applied) == len(onDisk), "durable collector applied %v chunks of %d sent", applied, len(onDisk))

	var walBytes int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			walBytes += info.Size()
		}
	}
	framesStored := float64(l.frames() * passes)
	l.set("ingest.wal_bytes_per_frame", float64(walBytes)/framesStored, int(framesStored))

	if err := durable.Close(); err != nil {
		return err
	}
	start := time.Now()
	durable, err = ingest.NewServer(ingest.ServerOptions{Ref: l.ref, DataDir: dir})
	if err != nil {
		return err
	}
	l.set("ingest.recovery_us", float64(time.Since(start).Microseconds())/framesStored, int(framesStored))
	l.checks.check(durable.Recovery().Chunks == len(onDisk), "recovery replayed %d chunks of %d acked", durable.Recovery().Chunks, len(onDisk))
	return nil
}

// ---- shard -------------------------------------------------------------

func (l *ledger) probeShard() error {
	ring, err := shard.NewRing([]string{"s0", "s1"}, 0)
	if err != nil {
		return err
	}
	const lookups = 1000
	devices := make([]string, lookups)
	for i := range devices {
		devices[i] = "device-" + strconv.Itoa(i)
	}
	owner, err := l.loop(func(int) (time.Duration, int, error) {
		start := time.Now()
		for _, d := range devices {
			ring.Owner(d)
		}
		// One unit: the division below keeps nanosecond resolution.
		return time.Since(start), 1, nil
	})
	if err != nil {
		return err
	}
	l.set("shard.ring_owner_ns", owner.us()*1000/lookups, len(owner)*lookups)

	chunks, err := l.chunks()
	if err != nil {
		return err
	}
	var addrs []shard.ShardAddr
	for _, name := range []string{"s0", "s1"} {
		srv, err := ingest.NewServer(ingest.ServerOptions{Ref: l.ref})
		if err != nil {
			return err
		}
		defer srv.Close()
		ts := httptest.NewServer(srv)
		defer ts.Close()
		addrs = append(addrs, shard.ShardAddr{Name: name, URL: ts.URL})
	}
	gw, err := shard.NewGateway(shard.GatewayOptions{Shards: addrs})
	if err != nil {
		return err
	}
	front := httptest.NewServer(gw)
	defer front.Close()
	urlOf := map[string]string{addrs[0].Name: addrs[0].URL, addrs[1].Name: addrs[1].URL}

	// Each pass uploads one device's stream through the gateway and another
	// device's straight to its owning shard; the hop is the difference.
	var via, direct sample
	sessions := 0
	_, err = l.loop(func(p int) (time.Duration, int, error) {
		for idx, body := range chunks {
			d, err := postOver(front.Client(), front.URL, "gw-"+strconv.Itoa(p), idx, body)
			if err != nil {
				return 0, 1, err
			}
			via = append(via, d)
			dev := "direct-" + strconv.Itoa(p)
			if d, err = postOver(front.Client(), urlOf[ring.Owner(dev)], dev, idx, body); err != nil {
				return 0, 1, err
			}
			direct = append(direct, d)
		}
		sessions += 2
		return 0, 1, nil
	})
	if err != nil {
		return err
	}
	l.set("shard.gateway_hop_us", via.us()-direct.us(), len(via))

	merge, err := l.loop(func(int) (time.Duration, int, error) {
		start := time.Now()
		resp, err := front.Client().Get(front.URL + "/fleet")
		if err != nil {
			return 0, 1, err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return 0, 1, fmt.Errorf("gateway GET /fleet: %d", resp.StatusCode)
		}
		return time.Since(start), sessions, nil
	})
	l.set("shard.fleet_merge_us", merge.us(), len(merge))
	return err
}
