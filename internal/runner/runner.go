// Package runner is the parallel replay engine. It has one worker contract:
// a range function func(start, end int) error (ProcessBatchFunc) that replays
// the dataset frames [start, end) through a worker-local pipeline replica and
// logs them, one frame tag per frame in frame order, to that worker's
// core.Monitor shard. One factory type (BatchWorkerFactory) builds a worker
// around its shard, and one entry point (ReplayBatched) runs a pool of them
// and merges the shard telemetry by frame index. The merged log is record-
// for-record identical to what a sequential replay would have produced
// (modulo wall-clock latency values, which no two runs share), so
// CompareLayers and the deployment validator see exactly the sequential
// result — replay is embarrassingly parallel across frames and this engine
// exploits that without giving up reproducibility.
//
//	frames ─► dispatcher ─► worker 0 (pipeline replica + monitor shard) ─┐
//	   ▲                ├─► worker 1 (pipeline replica + monitor shard) ─┤─► in-order
//	   │                └─► worker N (pipeline replica + monitor shard) ─┘    collector ─► Log / sink
//	   └──────────────── reorder-window credits (4 × workers × batch) ◄──────────┘
//
// Options.BatchFrames sets the range length the dispatcher hands out (1 by
// default: every range is one frame). What a worker does with a range is its
// own business: a per-frame body wrapped in PerFrame runs it frame by frame
// and only the dispatch round-trip is amortized; a batched replica (e.g.
// pipeline.BatchClassifier) runs it through one batched interpreter invoke.
// Either way the collector splits the range's drained records back into
// per-frame groups, so the merged log does not depend on the range length.
//
// Workers drain their monitor shard after every range, so shard buffers stay
// one range deep; with a sink attached the collector streams frames out as
// soon as they are in order. When the sink supports pre-encoding
// (core.FramePreEncoder — the JSONL sink does) and there is more than one
// worker, workers also pre-marshal their frames' record lines, so the serial
// collector only patches sequence numbers and concatenates. The reorder
// window is bounded: at most 4 × workers × batch frames (2 × when captures
// are lent, below) may be dispatched and not yet flushed, so a single slow
// frame throttles dispatch instead of growing the window without limit —
// streaming million-frame replays hold flat memory. That credit throttle is
// the only back-pressure: the results channel and the collector's reorder
// ring each hold a whole window, so a worker holding credits never waits for
// the collector, and inference and capture on the worker overlap with
// encoding and the sink on the collector.
//
// With DiscardLog set nothing keeps the records past the sink (core.Sink
// forbids it), so the shards lend instead of give: a range is captured into
// one record buffer and one payload slab from the shard monitor's free list
// (core.Monitor.Lend/DrainLent), and both return to it (Capture.Recycle) when the collector
// has flushed the range's last frame — or, with pre-encoding, as soon as the
// worker has marshaled it. Without DiscardLog the merged log owns its
// records, each payload an allocation of its own, as before.
//
// The fleet scheduler (fleet.go) is the same contract one tier up: one
// factory type (FleetBatchWorkerFactory, the worker contract plus the device
// it is built for) behind one entry point (Fleet.ReplayBatched), which shards
// the frame range across simulated devices and runs each device's shard
// through this engine with its own worker pool and per-device shard log.
package runner

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"mlexray/internal/core"
)

// ProcessBatchFunc is the engine's one worker contract: it replays the
// contiguous frame range [start, end) (0-based dataset indices) through a
// worker-local pipeline replica. The monitor shard handed to the factory is
// positioned at start before the call, so the replica's first NextFrame tags
// records with global frame number start+1; the function must advance the
// shard's frame counter exactly once per frame, in frame order (every
// pipeline type does this on entry) — the collector groups records by their
// frame tag and rejects records tagged outside the dispatched range or out
// of frame order.
type ProcessBatchFunc func(start, end int) error

// BatchWorkerFactory builds one worker's state: given that worker's monitor
// shard, it returns the function that replays a frame range on that worker.
// Factories run sequentially before any worker starts, so they may touch
// shared caches (zoo, resolvers) without synchronisation; the returned
// functions run concurrently and must only share read-only state.
type BatchWorkerFactory func(mon *core.Monitor) (ProcessBatchFunc, error)

// errNilFactory is returned by both entry points before any worker is built.
var errNilFactory = errors.New("runner: nil worker factory")

// Range is a half-open interval of dataset frames [Start, End). Shard
// policies express device assignments as ordered, disjoint range lists.
type Range struct{ Start, End int }

// Len returns the number of frames in the range.
func (r Range) Len() int { return r.End - r.Start }

// Options configures a replay.
type Options struct {
	// Workers is the pool size; <= 0 means GOMAXPROCS. The merged output is
	// identical for every worker count.
	Workers int
	// BatchFrames is the number of consecutive frames handed to a worker
	// per dispatch; <= 1 dispatches frame at a time. The merged output is
	// identical for every batch size.
	BatchFrames int
	// MonitorOptions configure each worker's monitor shard (capture mode,
	// per-layer logging). All shards must be configured identically or the
	// merged log would depend on which worker processed which frame.
	MonitorOptions []core.MonitorOption
	// Sink, when set, receives frames in order as soon as they are
	// contiguous — the streaming path for replays too large to hold in
	// memory — on the collector goroutine, while the workers run up to a
	// reorder window ahead. It must not hold anything of a frame past
	// WriteFrame (core.Sink): with DiscardLog the records are on loan from
	// recycled buffers. Sinks implementing core.FramePreEncoder (the JSONL
	// sink) additionally move record marshaling onto the worker goroutines
	// when there is more than one. The engine never calls Flush — the sink's
	// lifecycle stays with the caller.
	Sink core.Sink
	// DiscardLog suppresses the in-memory merged log (ReplayBatched returns
	// an empty log) and, since nothing then keeps the records, captures each
	// range into recycled buffers instead of fresh allocations. Only
	// meaningful with a Sink; without one the records would be lost.
	DiscardLog bool
}

func (o *Options) workers(frames int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if b := o.batch(); frames > 0 && w > (frames+b-1)/b {
		w = (frames + b - 1) / b // at least 1: no more workers than ranges
	}
	return w
}

func (o *Options) batch() int {
	if o.BatchFrames < 1 {
		return 1
	}
	return o.BatchFrames
}

// frameResult is one completed frame's telemetry en route to the collector.
type frameResult struct {
	// pos is the frame's position in the shard sequence (0-based across the
	// runner's ranges); frame is its global dataset index. For a whole-range
	// replay the two coincide.
	pos   int
	frame int
	recs  []core.Record
	// pre holds the worker-marshaled record lines when the sink supports
	// pre-encoding; the collector then only patches sequence numbers.
	pre    core.PreEncodedFrame
	hasPre bool
	// held marks an occupied slot of the collector's reorder ring.
	held bool
	// lent is set on the last frame of a lent range: flushing it ends the
	// loan of the whole range's records (of which recs, here and in the
	// range's earlier frames, are sub-slices).
	lent core.Capture
}

// PerFrame adapts a per-frame body to the range contract: each frame is
// re-positioned individually, because a per-frame body only advances the
// counter once and the range contract wants exact tags even if a frame logs
// nothing.
func PerFrame(mon *core.Monitor, process func(frame int) error) ProcessBatchFunc {
	return func(start, end int) error {
		for g := start; g < end; g++ {
			mon.SetNextFrame(g + 1)
			if err := process(g); err != nil {
				return err
			}
		}
		return nil
	}
}

// ReplayBatched runs frames 0..frames-1 through the worker pool, handing
// each worker contiguous [start,end) ranges of Options.BatchFrames frames,
// and returns the merged telemetry log (empty when DiscardLog is set). The
// collector splits each range's drained records back into per-frame groups,
// so the merged log is the same for every range length and worker count. On
// error the first failure is returned and in-flight workers stop at the next
// range boundary.
func ReplayBatched(frames int, factory BatchWorkerFactory, opts Options) (*core.Log, error) {
	if factory == nil {
		return nil, errNilFactory
	}
	if frames < 0 {
		return nil, fmt.Errorf("runner: negative frame count %d", frames)
	}
	return runShard([]Range{{0, frames}}, factory, opts)
}

// checkRanges validates a shard assignment slice: ranges must be ordered,
// disjoint and non-negative.
func checkRanges(ranges []Range) error {
	prev := 0
	for i, r := range ranges {
		if r.Start < 0 || r.End < r.Start {
			return fmt.Errorf("runner: invalid frame range [%d,%d)", r.Start, r.End)
		}
		if i > 0 && r.Start < prev {
			return fmt.Errorf("runner: frame range [%d,%d) overlaps or precedes [..,%d)", r.Start, r.End, prev)
		}
		prev = r.End
	}
	return nil
}

// runShard is the replay core shared by ReplayBatched (one [0,frames) range)
// and the fleet scheduler (one call per device, over that device's assigned
// ranges): a worker pool with per-worker monitor shards, a credit-bounded
// reorder window, and an in-order collector that renumbers sequence numbers
// across the shard and streams frames to the sink. Ranges must be ordered and
// disjoint; records keep their global frame tags, so shard logs from
// different devices merge with core.MergeByFrame into exactly the sequential
// record order.
func runShard(ranges []Range, factory BatchWorkerFactory, opts Options) (*core.Log, error) {
	if err := checkRanges(ranges); err != nil {
		return nil, err
	}
	if opts.DiscardLog && opts.Sink == nil {
		return nil, fmt.Errorf("runner: DiscardLog without a Sink would drop all telemetry")
	}
	frames := 0
	for _, r := range ranges {
		frames += r.Len()
	}
	nw := opts.workers(frames)
	batch := opts.batch()
	// The reorder window: at most this many frames dispatched and not yet
	// flushed in order. nw >= 1, so a full batch always fits.
	maxPending := 4 * nw * batch
	// Pre-encoding pays off by overlapping record marshaling across worker
	// goroutines; with a single worker there is nothing to overlap and the
	// extra staging buffer would only cost, so the collector encodes.
	var preEnc core.FramePreEncoder
	if nw > 1 {
		preEnc, _ = opts.Sink.(core.FramePreEncoder)
	}
	// With the merged log discarded nothing outlives the sink's WriteFrame
	// (core.Sink forbids retaining), so the shards lend their captures and
	// get the buffers back once the range is flushed or pre-encoded. A lent
	// range in flight pins a slab sized for the whole range, so the lent
	// window is double buffering — one range with the collector, one being
	// captured, per worker: a worker that outruns the sink (a full-capture
	// float replay since the AVX2 kernels) otherwise fills all four ranges
	// with payload slabs for no more overlap than two give.
	lend := opts.Sink != nil && opts.DiscardLog
	if lend {
		maxPending = 2 * nw * batch
	}

	// Build all workers up front: factory errors surface before any
	// goroutine starts, and sequential construction lets factories share
	// caches safely.
	mons := make([]*core.Monitor, nw)
	procs := make([]ProcessBatchFunc, nw)
	for i := range mons {
		mons[i] = core.NewMonitor(opts.MonitorOptions...)
		p, err := factory(mons[i])
		if err != nil {
			return nil, fmt.Errorf("runner: worker %d: %w", i, err)
		}
		procs[i] = p
	}

	// A job is one dispatched frame range: [start,end) in global frame
	// indices, with pos the shard position of start (the collector's
	// ordering key — global indices are not contiguous within a fleet
	// shard).
	type job struct{ start, end, pos int }
	jobs := make(chan job)
	// results holds the whole reorder window: every dispatched frame took a
	// credit, so a worker never parks on delivery while the collector is
	// inside the sink — the credit throttle is the only back-pressure, and
	// capture and encode overlap with inference instead of alternating.
	results := make(chan frameResult, maxPending)
	stop := make(chan struct{})
	var stopOnce sync.Once
	cancel := func() { stopOnce.Do(func() { close(stop) }) }

	// credits is the reorder-window budget: the dispatcher takes one credit
	// per frame before sending a range, the collector returns one per frame
	// flushed in order. Dispatch therefore stalls as soon as maxPending
	// frames are in flight — the frame after a straggler is always either
	// executing or buffered, so progress is guaranteed.
	credits := make(chan struct{}, maxPending)
	for i := 0; i < maxPending; i++ {
		credits <- struct{}{}
	}

	go func() { // dispatcher
		defer close(jobs)
		pos := 0
		for _, rg := range ranges {
			for start := rg.Start; start < rg.End; start += batch {
				end := start + batch
				if end > rg.End {
					end = rg.End
				}
				for i := start; i < end; i++ {
					select {
					case <-credits:
					case <-stop:
						return
					}
				}
				select {
				case jobs <- job{start, end, pos}:
				case <-stop:
					return
				}
				pos += end - start
			}
		}
	}()

	var wg sync.WaitGroup
	workerErrs := make([]error, nw)
	for i := 0; i < nw; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mon, process := mons[i], procs[i]
			var groups [][]core.Record // the range split, reused: frames leave it by value
			for j := range jobs {
				// Position the shard so the pipeline's NextFrame calls tag
				// records with global frame numbers (sequential runs number
				// frames 1..N).
				mon.SetNextFrame(j.start + 1)
				if lend {
					mon.Lend(j.end - j.start)
				}
				if err := process(j.start, j.end); err != nil {
					if j.end-j.start == 1 {
						workerErrs[i] = fmt.Errorf("runner: frame %d: %w", j.start, err)
					} else {
						workerErrs[i] = fmt.Errorf("runner: frames [%d,%d): %w", j.start, j.end, err)
					}
					cancel()
					return
				}
				var lent core.Capture
				if lend {
					lent = mon.DrainLent()
				} else {
					lent.Records = mon.Drain()
				}
				var err error
				if groups, err = splitByFrame(groups, j.start, j.end, lent.Records); err != nil {
					workerErrs[i] = err
					cancel()
					return
				}
				for g := j.start; g < j.end; g++ {
					fr := frameResult{pos: j.pos + (g - j.start), frame: g, recs: groups[g-j.start]}
					if preEnc != nil {
						// Marshal here, on the worker, so the serial
						// collector only patches seq numbers and appends.
						fr.pre, err = preEnc.PreEncodeFrame(fr.recs)
						if err != nil {
							workerErrs[i] = fmt.Errorf("runner: frame %d: %w", g, err)
							cancel()
							return
						}
						fr.hasPre = true
						if opts.DiscardLog {
							// The merged log is discarded, so the reorder
							// window need not hold the raw payloads on top
							// of their encoded lines.
							fr.recs = nil
						}
					}
					if lend && g == j.end-1 {
						if preEnc != nil {
							lent.Recycle() // every frame of the range is encoded
						} else {
							fr.lent = lent
						}
					}
					select {
					case results <- fr:
					case <-stop:
						return
					}
				}
			}
		}(i)
	}
	go func() { wg.Wait(); close(results) }()

	// In-order collector: a reorder window buffers frames that finished
	// ahead of a slower predecessor and releases them as soon as the
	// sequence is contiguous. Every frame in flight holds a credit, so the
	// positions in flight span less than maxPending and pos % maxPending is a
	// slot of its own.
	merged := &core.Log{}
	pending := make([]frameResult, maxPending)
	next, seq := 0, 0
	var sinkErr error
	for fr := range results {
		fr.held = true
		pending[fr.pos%maxPending] = fr
		for {
			cur := pending[next%maxPending]
			if !cur.held {
				break
			}
			pending[next%maxPending] = frameResult{}
			// Pre-encoded frames may have dropped their raw records
			// (DiscardLog), so the encoded line count is the seq authority.
			n := len(cur.recs)
			if cur.hasPre {
				n = cur.pre.Records()
			}
			for j := range cur.recs {
				cur.recs[j].Seq = seq + j
			}
			if opts.Sink != nil && sinkErr == nil {
				if cur.hasPre {
					sinkErr = preEnc.WritePreEncoded(cur.frame+1, cur.pre, seq)
				} else {
					sinkErr = opts.Sink.WriteFrame(cur.frame+1, cur.recs)
				}
				if sinkErr != nil {
					cancel()
				}
			}
			seq += n
			if !opts.DiscardLog {
				if merged.Records == nil && len(cur.recs) > 0 {
					// Every frame runs the same graph under the same capture
					// mode, so the first frame's record count sizes the log.
					merged.Records = make([]core.Record, 0, frames*len(cur.recs))
				}
				merged.Records = append(merged.Records, cur.recs...)
			}
			cur.lent.Recycle()
			next++
			select {
			case credits <- struct{}{}:
			default:
				// Only reachable after a cancel already tore the flow down;
				// never under normal operation (releases ≤ acquisitions).
			}
		}
	}
	for _, err := range workerErrs {
		if err != nil {
			return nil, err
		}
	}
	if sinkErr != nil {
		return nil, fmt.Errorf("runner: sink: %w", sinkErr)
	}
	return merged, nil
}

// splitByFrame groups a drained record range back into per-frame groups,
// each a sub-slice of recs, reusing groups' backing array when it is long
// enough (a worker's ranges are all one length but the last): a shard logs
// its range in frame order, so every frame's records are one contiguous run.
// Monitors tag records with 1-based frame numbers; the range [start,end) is
// 0-based, so frame tag start+1 lands in group 0. A record tagged outside the range, or a tag lower than
// its predecessor's, means the worker body advanced the frame counter out of
// contract, which would silently corrupt the merge — fail loudly instead.
func splitByFrame(groups [][]core.Record, start, end int, recs []core.Record) ([][]core.Record, error) {
	if cap(groups) < end-start {
		groups = make([][]core.Record, end-start)
	}
	groups = groups[:end-start]
	clear(groups)
	for lo := 0; lo < len(recs); {
		tag := recs[lo].Frame
		hi := lo + 1
		for hi < len(recs) && recs[hi].Frame == tag {
			hi++
		}
		g := tag - 1 - start
		if g < 0 || g >= len(groups) {
			return nil, fmt.Errorf("runner: record %q tagged frame %d outside dispatched range [%d,%d)",
				recs[lo].Key, tag, start+1, end+1)
		}
		if hi < len(recs) && recs[hi].Frame < tag {
			return nil, fmt.Errorf("runner: record %q tagged frame %d after frame %d: shard records out of frame order",
				recs[hi].Key, recs[hi].Frame, tag)
		}
		groups[g] = recs[lo:hi:hi]
		lo = hi
	}
	return groups, nil
}
