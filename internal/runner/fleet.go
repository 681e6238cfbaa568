package runner

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"mlexray/internal/core"
	"mlexray/internal/device"
)

// Fleet is the two-tier replay scheduler: it shards one dataset replay
// across a set of simulated devices (the paper's heterogeneous edge fleet —
// phones, GPU delegates, emulators), and each device runs its shard through
// the per-device replay core (runShard) with its own worker pool, batch
// size, monitor shards and optional log sink. Devices execute concurrently;
// because every record keeps its global frame tag, the per-device shard
// logs merge (core.MergeByFrame) into exactly the record order a sequential
// replay of the same shard assignment would have produced — the determinism
// contract of the single-device engine, lifted to the fleet.
//
//	frames ─► ShardPolicy ─► device 0 shard ─► worker pool ─► shard log ─┐
//	                     ├─► device 1 shard ─► worker pool ─► shard log ─┤─► MergeByFrame
//	                     └─► device D shard ─► worker pool ─► shard log ─┘   + FleetReport
type Fleet struct {
	// Devices lists the fleet members; at least one is required.
	Devices []DeviceSpec
	// Policy shards the frame range across devices; nil means Contiguous.
	Policy ShardPolicy
	// MonitorOptions configure every device's monitor shards. As with
	// Options.MonitorOptions, all shards must be configured identically;
	// nil replays uninstrumented.
	MonitorOptions []core.MonitorOption
	// DiscardLogs suppresses the in-memory per-device and merged logs.
	// Requires every device to carry a Sink, or telemetry would be lost.
	DiscardLogs bool
}

// DeviceSpec describes one device slot of a fleet replay.
type DeviceSpec struct {
	// Profile is the simulated device (latency model, logging overheads).
	// The fleet scheduler itself only consults it for Weighted sharding and
	// naming; worker factories attach it to their pipeline replicas.
	Profile *device.Profile
	// Workers is this device's worker-pool size; <= 0 means 1 (fleet
	// devices default narrow so a many-device fleet does not oversubscribe
	// the host).
	Workers int
	// BatchFrames is the device's frames-per-dispatch (and, with a batched
	// worker, frames per interpreter invoke); <= 1 is frame at a time.
	BatchFrames int
	// Sink, when set, streams this device's shard frames in order — the
	// per-device shard log. Frame tags are global, so shard logs remain
	// mergeable and individually validatable.
	Sink core.Sink
}

// Name returns the device profile name (or a placeholder when no profile is
// attached).
func (s DeviceSpec) Name() string {
	if s.Profile != nil {
		return s.Profile.Name
	}
	return "device"
}

func (s DeviceSpec) workers() int {
	if s.Workers <= 0 {
		return 1
	}
	return s.Workers
}

func (s DeviceSpec) batch() int {
	if s.BatchFrames < 1 {
		return 1
	}
	return s.BatchFrames
}

// weight is the device's share under throughput-proportional policies:
// modeled single-core throughput times the worker count.
func (s DeviceSpec) weight() float64 {
	w := 1.0
	if s.Profile != nil {
		w = s.Profile.ModeledThroughput()
	}
	return w * float64(s.workers())
}

// ShardPolicy distributes the frame range of a fleet replay across devices.
// Assign returns one ordered, disjoint range list per device; together the
// lists must cover [0, frames) exactly (validated by the fleet before any
// worker starts). Policies must be deterministic: the shard assignment is
// part of the replay's reproducibility contract.
type ShardPolicy interface {
	Name() string
	Assign(frames int, devs []DeviceSpec) [][]Range
}

// RoundRobin deals fixed-size chunks of consecutive frames to devices
// cyclically — the policy that ignores device speed and spreads cache-warm
// ranges evenly.
type RoundRobin struct {
	// Chunk is the frames per deal; <= 0 uses each receiving device's batch
	// size, so every deal is one batched invoke.
	Chunk int
}

// Name implements ShardPolicy.
func (p RoundRobin) Name() string { return "round-robin" }

// Assign implements ShardPolicy.
func (p RoundRobin) Assign(frames int, devs []DeviceSpec) [][]Range {
	if len(devs) == 0 {
		return nil
	}
	out := make([][]Range, len(devs))
	next := 0
	for d := 0; next < frames; d = (d + 1) % len(devs) {
		n := p.Chunk
		if n <= 0 {
			n = devs[d].batch()
		}
		end := next + n
		if end > frames {
			end = frames
		}
		out[d] = appendRange(out[d], Range{next, end})
		next = end
	}
	return out
}

// Weighted deals chunks in proportion to each device's modeled throughput
// (device.Profile.ModeledThroughput × worker count), so a fleet of unequal
// devices finishes together instead of idling behind its slowest member.
// Assignment is deterministic: at every deal the device with the largest
// deficit (target share minus frames assigned) takes the next chunk, ties
// broken by device index.
type Weighted struct {
	// Chunk is the frames per deal; <= 0 uses each receiving device's batch
	// size.
	Chunk int
}

// Name implements ShardPolicy.
func (p Weighted) Name() string { return "weighted" }

// Assign implements ShardPolicy.
func (p Weighted) Assign(frames int, devs []DeviceSpec) [][]Range {
	if len(devs) == 0 {
		return nil
	}
	out := make([][]Range, len(devs))
	weights := make([]float64, len(devs))
	var total float64
	for d, spec := range devs {
		weights[d] = spec.weight()
		if weights[d] <= 0 {
			weights[d] = 1
		}
		total += weights[d]
	}
	counts := make([]int, len(devs))
	next := 0
	for next < frames {
		// The next chunk goes to the device furthest below its target share
		// of the frames dealt so far (counting the chunk being dealt, so the
		// very first deals also follow the weights).
		best, bestDeficit := 0, 0.0
		for d := range devs {
			chunk := p.Chunk
			if chunk <= 0 {
				chunk = devs[d].batch()
			}
			deficit := weights[d]/total*float64(next+chunk) - float64(counts[d])
			if d == 0 || deficit > bestDeficit {
				best, bestDeficit = d, deficit
			}
		}
		n := p.Chunk
		if n <= 0 {
			n = devs[best].batch()
		}
		end := next + n
		if end > frames {
			end = frames
		}
		out[best] = appendRange(out[best], Range{next, end})
		counts[best] += end - next
		next = end
	}
	return out
}

// Contiguous splits [0, frames) into one contiguous span per device, sized
// equally (remainder frames go to the leading devices). The layout with the
// fewest range boundaries — use Weighted when device speeds differ.
type Contiguous struct{}

// Name implements ShardPolicy.
func (p Contiguous) Name() string { return "contiguous" }

// Assign implements ShardPolicy.
func (p Contiguous) Assign(frames int, devs []DeviceSpec) [][]Range {
	if len(devs) == 0 {
		return nil
	}
	out := make([][]Range, len(devs))
	per, rem := frames/len(devs), frames%len(devs)
	next := 0
	for d := range devs {
		n := per
		if d < rem {
			n++
		}
		if n > 0 {
			out[d] = append(out[d], Range{next, next + n})
			next += n
		}
	}
	return out
}

// appendRange appends r, coalescing with the previous range when adjacent
// (a single-device round-robin degenerates to one contiguous range).
func appendRange(rs []Range, r Range) []Range {
	if n := len(rs); n > 0 && rs[n-1].End == r.Start {
		rs[n-1].End = r.End
		return rs
	}
	return append(rs, r)
}

// checkAssignment validates a policy's output: per-device ranges ordered and
// disjoint, and the union covering [0, frames) exactly once. The range count
// scales with the frame count (one-frame chunks under round-robin), so the
// disjointness check is a sort plus one linear sweep, not a pairwise scan.
func checkAssignment(frames int, devices int, asn [][]Range) error {
	if len(asn) != devices {
		return fmt.Errorf("runner: shard policy returned %d shard lists for %d devices", len(asn), devices)
	}
	covered := 0
	var all []Range
	for d, ranges := range asn {
		if err := checkRanges(ranges); err != nil {
			return fmt.Errorf("runner: device %d: %w", d, err)
		}
		for _, r := range ranges {
			if r.End > frames {
				return fmt.Errorf("runner: device %d assigned frames [%d,%d) beyond %d", d, r.Start, r.End, frames)
			}
			all = append(all, r)
			covered += r.Len()
		}
	}
	if covered != frames {
		return fmt.Errorf("runner: shard policy covered %d of %d frames", covered, frames)
	}
	// Equal totals plus disjointness imply exact cover; sorted bounds make
	// disjointness a single adjacent-pair sweep.
	sort.Slice(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	for i := 1; i < len(all); i++ {
		if all[i].Start < all[i-1].End {
			return fmt.Errorf("runner: shard ranges [%d,%d) and [%d,%d) overlap",
				all[i-1].Start, all[i-1].End, all[i].Start, all[i].End)
		}
	}
	return nil
}

// FleetBatchWorkerFactory builds one worker for device dev (index into
// Fleet.Devices): the same contract as BatchWorkerFactory, plus the device
// spec so the factory can attach the device's latency profile (or a
// per-device configuration under test) to its pipeline replica.
type FleetBatchWorkerFactory func(dev int, spec DeviceSpec, mon *core.Monitor) (ProcessBatchFunc, error)

// FleetResult is one fleet replay's output.
type FleetResult struct {
	// Merged is the fleet-wide telemetry log in sequential record order
	// (nil with DiscardLogs). Byte-identical — modulo wall-clock latency
	// values — to a sequential replay of the same shard assignment.
	Merged *core.Log
	// DeviceLogs holds each device's shard log (records tagged with global
	// frame numbers), indexed like Fleet.Devices. Empty logs with
	// DiscardLogs — the telemetry then lives in the per-device sinks.
	DeviceLogs []*core.Log
	// Assignment is the shard assignment the policy produced, indexed like
	// Fleet.Devices.
	Assignment [][]Range
}

// Frames returns the number of frames assigned to device d.
func (r *FleetResult) Frames(d int) int {
	n := 0
	for _, rg := range r.Assignment[d] {
		n += rg.Len()
	}
	return n
}

// ReplayBatched shards frames 0..frames-1 across the fleet's devices and
// runs every device's shard concurrently through the per-device replay core,
// each device's workers taking its shard in BatchFrames-sized ranges.
// Per-device shard logs stream to the device sinks as frames merge in order;
// FleetResult.Merged is the fleet-wide sequential-order log.
func (f *Fleet) ReplayBatched(frames int, factory FleetBatchWorkerFactory) (*FleetResult, error) {
	if factory == nil {
		return nil, errNilFactory
	}
	if len(f.Devices) == 0 {
		return nil, fmt.Errorf("runner: fleet has no devices")
	}
	if frames < 0 {
		return nil, fmt.Errorf("runner: negative frame count %d", frames)
	}
	if f.DiscardLogs {
		for d, spec := range f.Devices {
			if spec.Sink == nil {
				return nil, fmt.Errorf("runner: DiscardLogs but device %d (%s) has no Sink", d, spec.Name())
			}
		}
	}
	policy := f.Policy
	if policy == nil {
		policy = Contiguous{}
	}
	asn := policy.Assign(frames, f.Devices)
	if err := checkAssignment(frames, len(f.Devices), asn); err != nil {
		return nil, fmt.Errorf("runner: policy %s: %w", policy.Name(), err)
	}

	logs := make([]*core.Log, len(f.Devices))
	errs := make([]error, len(f.Devices))
	var wg sync.WaitGroup
	for d := range f.Devices {
		if len(asn[d]) == 0 {
			// Starved device (e.g. Weighted with a very slow profile): no
			// frames means no workers — skip the pipeline construction.
			logs[d] = &core.Log{}
			continue
		}
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			spec := f.Devices[d]
			opts := Options{
				Workers:        spec.workers(),
				BatchFrames:    spec.BatchFrames,
				MonitorOptions: f.MonitorOptions,
				Sink:           spec.Sink,
				DiscardLog:     f.DiscardLogs,
			}
			logs[d], errs[d] = runShard(asn[d], func(mon *core.Monitor) (ProcessBatchFunc, error) {
				return factory(d, spec, mon)
			}, opts)
		}(d)
	}
	wg.Wait()
	for d, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("runner: device %d (%s): %w", d, f.Devices[d].Name(), err)
		}
	}
	res := &FleetResult{DeviceLogs: logs, Assignment: asn}
	if !f.DiscardLogs {
		res.Merged = core.MergeByFrame(logs...)
	}
	return res, nil
}

// ParseShardPolicy resolves a CLI policy name to its ShardPolicy.
func ParseShardPolicy(name string) (ShardPolicy, error) {
	switch name {
	case "contiguous":
		return Contiguous{}, nil
	case "round-robin":
		return RoundRobin{}, nil
	case "weighted":
		return Weighted{}, nil
	}
	return nil, fmt.Errorf("runner: unknown shard policy %q (want contiguous, round-robin or weighted)", name)
}

// ParseFleetSpec parses the CLI fleet syntax: comma-separated
// "profile:workers[:batch]" entries, e.g. "Pixel4:2,Pixel3:1:4" — two
// Pixel 4 workers at the default batch plus one Pixel 3 worker batching 4
// frames per invoke. Workers and batch must be positive; profile names
// resolve through device.ByName.
func ParseFleetSpec(spec string) ([]DeviceSpec, error) {
	var devs []DeviceSpec
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			return nil, fmt.Errorf("runner: empty fleet entry in %q", spec)
		}
		parts := strings.Split(entry, ":")
		if len(parts) > 3 {
			return nil, fmt.Errorf("runner: fleet entry %q: want profile:workers[:batch]", entry)
		}
		prof, err := device.ByName(parts[0])
		if err != nil {
			return nil, fmt.Errorf("runner: fleet entry %q: %w", entry, err)
		}
		d := DeviceSpec{Profile: prof, Workers: 1, BatchFrames: 1}
		if len(parts) > 1 {
			d.Workers, err = strconv.Atoi(parts[1])
			if err != nil || d.Workers < 1 {
				return nil, fmt.Errorf("runner: fleet entry %q: workers must be a positive integer", entry)
			}
		}
		if len(parts) > 2 {
			d.BatchFrames, err = strconv.Atoi(parts[2])
			if err != nil || d.BatchFrames < 1 {
				return nil, fmt.Errorf("runner: fleet entry %q: batch must be a positive integer", entry)
			}
		}
		devs = append(devs, d)
	}
	return devs, nil
}
