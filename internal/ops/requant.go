package ops

import (
	"mlexray/internal/quant"
)

// requantizer is one quantized node's requantizing store — bias-added int32
// accumulator in, clamped output byte out — planned once per node. The
// per-channel multipliers are flattened at plan time twice from the same
// quant.Multiplier values: into the block layout the AVX2 tiles read (lanes)
// and into one rqLane per channel for the Go kernels, whose apply the
// compiler inlines. quant.Multiplier stays the oracle:
// TestRequantLanesMatchMultiplier holds both forms to Apply and
// ApplyLogicalShiftBug on every shift.
//
// A requantizer exists only when every channel is in the lane domain:
// M > 0 and 0 <= Shift <= 31, which holds for every multiplier NewMultiplier
// makes from a real in [2^-32, 1) that does not round up to 1. A node with a
// channel outside it (a real multiplier of 1 or more, or one below 2^-32)
// runs the reference loops with Multiplier's own methods on every backend
// and host: a documented fallback, not an error (cachedLanePlan).
type requantizer struct {
	// lanes holds padUp(len(chans), 8)/8 blocks of rqBlock int32s, channel
	// c at lane c%8 of block c/8: M, shift, mask = 2^shift-1, half =
	// mask>>1, and logical = -1 where the historical defect applies (the
	// historical kernel, shift > 0). Pad lanes repeat channel 0.
	lanes        []int32
	chans        []rqLane
	outZ, lo, hi int32
}

// rqLane is one channel of a requantizer in the Go kernels' layout.
type rqLane struct {
	m                   int64
	shift               uint32
	mask, half, logical int32
}

// rqBlock is the int32 count of one eight-channel block of requantizer
// lanes: five vectors of eight.
const rqBlock = 5 * 8

// Offsets of the five vectors inside a block.
const (
	rqM = 8 * iota
	rqShift
	rqMask
	rqHalf
	rqLogical
)

// newRequantizer plans the store of a node with the given per-channel
// multipliers; ok is false when a channel is outside the lane domain.
func newRequantizer(muls []quant.Multiplier, logical bool, outZ, lo, hi int32) (r requantizer, ok bool) {
	if len(muls) == 0 {
		return r, false
	}
	for _, m := range muls {
		if m.M <= 0 || m.Shift < 0 || m.Shift > 31 {
			return r, false
		}
	}
	r = requantizer{chans: make([]rqLane, len(muls)), lanes: make([]int32, padUp(len(muls), 8)/8*rqBlock), outZ: outZ, lo: lo, hi: hi}
	for c := 0; c < padUp(len(muls), 8); c++ {
		m := muls[0]
		if c < len(muls) {
			m = muls[c]
		}
		q := rqLane{m: int64(m.M), shift: uint32(m.Shift), mask: int32(1)<<uint(m.Shift) - 1}
		q.half = q.mask >> 1
		if logical && m.Shift > 0 {
			q.logical = -1
		}
		if c < len(muls) {
			r.chans[c] = q
		}
		b := r.lanes[c/8*rqBlock+c%8:]
		b[rqM], b[rqShift], b[rqMask], b[rqHalf], b[rqLogical] = m.M, int32(m.Shift), q.mask, q.half, q.logical
	}
	return r, true
}

// apply is Multiplier.Apply (ApplyLogicalShiftBug where logical is set) in
// the lane domain, as straight-line integer arithmetic the compiler inlines:
// the doubling high multiply with its sign-selected nudge (M > 0, so the
// product's sign is acc's and nothing saturates), then the rounding shift as
// mask, threshold and increment, then the historical defect's logical shift
// where it applies to a negative value.
func (q *rqLane) apply(acc int32) int32 {
	ab := int64(acc) * q.m
	nudge := int64(1 << 30)
	if ab < 0 {
		nudge = 1 - 1<<30
	}
	v := int32((ab + nudge) >> 31)
	s := q.shift & 31
	out := v >> s
	if v&q.mask+v>>31 > q.half {
		out++
	}
	if v&q.logical < 0 {
		out = int32(uint32(v) >> s)
	}
	return out
}

// cachedLanePlan returns the node's lane plan — built by build from the
// node's requantizer on the first invoke and cached on the Ctx — or nil when
// a channel of the node is outside the lane domain. Then the multipliers
// themselves are what the Ctx caches, which is what the reference loop the
// caller falls back to reads (cachedConvMultipliers): a refused node derives
// no multiplier per invoke, it only re-scans the cached ones for the domain.
func cachedLanePlan[P any](c *Ctx, outC int, logical bool, build func(requantizer) *P) (*P, error) {
	if p, ok := c.cache.(*P); ok {
		return p, nil
	}
	muls, ok := c.cache.([]quant.Multiplier)
	if !ok {
		var err error
		if muls, err = convMultipliers(c.InQ[0], c.InQ[1], c.OutQ[0], outC); err != nil {
			return nil, err
		}
	}
	lo, hi := quantActRange(c.Node.Attrs.Activation, c.OutQ[0])
	rq, ok := newRequantizer(muls, logical, c.OutQ[0].ZeroPoint(0), lo, hi)
	if !ok {
		c.cache = muls
		return nil, nil
	}
	p := build(rq)
	c.cache = p
	return p, nil
}
