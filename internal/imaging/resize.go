package imaging

import "fmt"

// ResizeKind selects the resampling filter. The paper's "resizing" bug class
// (§2, §4.3) is using bilinear resampling at deployment where the training
// pipeline downsampled with area averaging — aliasing then costs top-1
// accuracy with no runtime error.
type ResizeKind int

const (
	ResizeArea ResizeKind = iota // area averaging (anti-aliased downsample)
	ResizeBilinear
	ResizeNearest
)

func (k ResizeKind) String() string {
	switch k {
	case ResizeArea:
		return "area"
	case ResizeBilinear:
		return "bilinear"
	case ResizeNearest:
		return "nearest"
	default:
		return fmt.Sprintf("resize(%d)", int(k))
	}
}

// ParseResizeKind converts a name back into a ResizeKind.
func ParseResizeKind(s string) (ResizeKind, error) {
	switch s {
	case "area":
		return ResizeArea, nil
	case "bilinear":
		return ResizeBilinear, nil
	case "nearest":
		return ResizeNearest, nil
	}
	return ResizeArea, fmt.Errorf("imaging: unknown resize kind %q", s)
}

// Resize resamples im to w×h using the given filter. It panics on a
// non-positive target ("imaging: resize to WxH") and on an empty source
// ("imaging: resize of empty WxH image"), whatever the filter.
func Resize(im *Image, w, h int, kind ResizeKind) *Image {
	checkResize(im, w, h)
	out := NewImage(w, h, im.C)
	new(Resizer).resize(out, im, kind)
	return out
}

func checkResize(src *Image, w, h int) {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("imaging: resize to %dx%d", w, h))
	}
	if src.W <= 0 || src.H <= 0 {
		panic(fmt.Sprintf("imaging: resize of empty %dx%d image", src.W, src.H))
	}
}

// Resizer resamples into a caller-owned image through per-axis tables it
// keeps between calls, so a pipeline resizing frame after frame of one size
// allocates nothing. The tables are rebuilt when the filter, the source size
// or the target size differs from the previous call's. The zero value is
// ready to use; a Resizer is not safe for concurrent use.
//
// Every kernel below is held byte-identical to the straightforward per-pixel
// implementation it replaced (the oracles in resize_oracle_test.go): the
// tables hold the same float64s the old loops recomputed per pixel, and the
// arithmetic on them keeps the old expressions, association and tap order.
type Resizer struct {
	kind           ResizeKind
	sw, sh, dw, dh int // what the tables are built for; dw == 0 is "nothing"

	ax, ay areaAxis // ResizeArea

	// ResizeBilinear: output column ox interpolates source columns x0[ox]
	// and x1[ox] with weight fx[ox] on the latter. ResizeNearest: output
	// column ox copies source column x0[ox].
	x0, x1 []int
	fx     []float64
}

// Resize resamples src into dst, whose W×H is the target size and whose C
// must equal src's. Every pixel of dst is written, so dst may hold a previous
// frame. It panics as the package-level Resize does.
func (r *Resizer) Resize(dst, src *Image, kind ResizeKind) {
	checkResize(src, dst.W, dst.H)
	if dst.C != src.C {
		panic(fmt.Sprintf("imaging: resize of %d channels into %d", src.C, dst.C))
	}
	r.resize(dst, src, kind)
}

func (r *Resizer) resize(dst, src *Image, kind ResizeKind) {
	if dst.W == src.W && dst.H == src.H {
		copy(dst.Pix, src.Pix)
		return
	}
	if r.kind != kind || r.sw != src.W || r.sh != src.H || r.dw != dst.W || r.dh != dst.H {
		r.kind, r.sw, r.sh, r.dw, r.dh = kind, src.W, src.H, dst.W, dst.H
		switch kind {
		case ResizeArea:
			r.ax.build(src.W, dst.W)
			r.ay.build(src.H, dst.H)
		case ResizeBilinear:
			r.buildBilinear()
		case ResizeNearest:
			r.x0 = sized(r.x0, dst.W)
			for ox := range r.x0 {
				r.x0[ox] = ox * src.W / dst.W
			}
		}
	}
	switch {
	case kind == ResizeArea && src.C == 3:
		r.area3(dst, src)
	case kind == ResizeArea:
		r.area(dst, src)
	case kind == ResizeBilinear:
		r.bilinear(dst, src)
	case kind == ResizeNearest:
		r.nearest(dst, src)
	default:
		panic("imaging: bad resize kind")
	}
}

// sized returns s with length n, reallocating only when it cannot hold n.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// areaAxis is ResizeArea's table for one axis. Output coordinate o covers
// the source interval [o*s, o*s+s), s = src/dst: it averages the source
// cells span[o].first, span[o].first+1, … with weights w[span[o].lo:span[o].hi],
// each the length of that cell's overlap with the interval.
type areaAxis struct {
	span []areaSpan
	w    []float64
}

type areaSpan struct{ first, lo, hi int }

func (a *areaAxis) build(src, dst int) {
	s := float64(src) / float64(dst)
	a.span = sized(a.span, dst)
	a.w = sized(a.w, src+dst)[:0] // neighbouring intervals share at most one cell
	for o := range a.span {
		p0 := float64(o) * s
		p1 := p0 + s
		lo := len(a.w)
		for i := int(p0); i < src && float64(i) < p1; i++ {
			// A cell in [int(p0), p1) overlaps [p0, p1) by a positive length
			// unless p1 <= p0 (s lost to rounding), which empties all of
			// them: the kept weights are always a run starting at int(p0).
			if w := minf(float64(i+1), p1) - maxf(float64(i), p0); w > 0 {
				a.w = append(a.w, w)
			}
		}
		a.span[o] = areaSpan{first: int(p0), lo: lo, hi: len(a.w)}
	}
}

// taps returns output coordinate o's first source cell and tap weights.
func (a *areaAxis) taps(o int) (first int, w []float64) {
	sp := a.span[o]
	return sp.first, a.w[sp.lo:sp.hi]
}

// area performs box-filter (area averaging) resampling: each output pixel is
// the average of the exact source rectangle it covers. This is the
// anti-aliased downsampler training pipelines use; it preserves the mean of
// the image (a property the tests assert).
func (r *Resizer) area(dst, src *Image) {
	ax, ay := &r.ax, &r.ay
	c := src.C
	stride := src.W * c
	o := 0
	for oy := 0; oy < dst.H; oy++ {
		y0, wys := ay.taps(oy)
		for ox := 0; ox < dst.W; ox++ {
			x0, wxs := ax.taps(ox)
			for ch := 0; ch < c; ch++ {
				var sum, area float64
				base := y0*stride + x0*c + ch
				for _, wy := range wys {
					i := base
					for _, wx := range wxs {
						sum += float64(src.Pix[i]) * wx * wy
						area += wx * wy
						i += c
					}
					base += stride
				}
				dst.Pix[o] = average(sum, area)
				o++
			}
		}
	}
}

// area3 is area for interleaved three-channel images: one pass over the
// taps (source row major, column minor, as area visits them) carries the
// three channel sums, and the tap area — the same for every channel — is
// summed once.
func (r *Resizer) area3(dst, src *Image) {
	ax, ay := &r.ax, &r.ay
	stride := src.W * 3
	o := 0
	for oy := 0; oy < dst.H; oy++ {
		y0, wys := ay.taps(oy)
		for ox := 0; ox < dst.W; ox++ {
			x0, wxs := ax.taps(ox)
			var s0, s1, s2, area float64
			base := y0*stride + x0*3
			for _, wy := range wys {
				p := src.Pix[base : base+3*len(wxs)]
				for j, wx := range wxs {
					q := p[3*j : 3*j+3 : 3*j+3]
					s0 += float64(q[0]) * wx * wy
					s1 += float64(q[1]) * wx * wy
					s2 += float64(q[2]) * wx * wy
					area += wx * wy
				}
				base += stride
			}
			d := dst.Pix[o : o+3]
			d[0], d[1], d[2] = average(s0, area), average(s1, area), average(s2, area)
			o += 3
		}
	}
}

// average is the weighted mean as a pixel; an output pixel no tap reached
// is black.
func average(sum, area float64) uint8 {
	if area > 0 {
		return clamp8(sum / area)
	}
	return 0
}

// buildBilinear fills the per-column sample positions of the half-pixel-
// centre convention.
func (r *Resizer) buildBilinear() {
	r.x0, r.x1, r.fx = sized(r.x0, r.dw), sized(r.x1, r.dw), sized(r.fx, r.dw)
	sx := float64(r.sw) / float64(r.dw)
	for ox := 0; ox < r.dw; ox++ {
		fx := (float64(ox)+0.5)*sx - 0.5
		x0 := int(fx)
		if fx < 0 {
			x0 = 0
			fx = 0
		}
		x1 := x0 + 1
		if x1 >= r.sw {
			x1 = r.sw - 1
		}
		r.x0[ox], r.x1[ox], r.fx[ox] = x0, x1, fx-float64(x0)
	}
}

// bilinear samples with the half-pixel-centre convention and linear
// interpolation. When downsampling by large factors it only looks at the
// four neighbours of the sample point, producing the aliasing the paper
// blames for silent accuracy loss.
func (r *Resizer) bilinear(dst, src *Image) {
	c := src.C
	stride := src.W * c
	sy := float64(src.H) / float64(dst.H)
	o := 0
	for oy := 0; oy < dst.H; oy++ {
		fy := (float64(oy)+0.5)*sy - 0.5
		y0 := int(fy)
		if fy < 0 {
			y0 = 0
			fy = 0
		}
		y1 := y0 + 1
		if y1 >= src.H {
			y1 = src.H - 1
		}
		wy := fy - float64(y0)
		top, bot := src.Pix[y0*stride:(y0+1)*stride], src.Pix[y1*stride:(y1+1)*stride]
		for ox := 0; ox < dst.W; ox++ {
			i0, i1, wx := r.x0[ox]*c, r.x1[ox]*c, r.fx[ox]
			for ch := 0; ch < c; ch++ {
				v00 := float64(top[i0+ch])
				v10 := float64(top[i1+ch])
				v01 := float64(bot[i0+ch])
				v11 := float64(bot[i1+ch])
				t := v00 + (v10-v00)*wx
				b := v01 + (v11-v01)*wx
				dst.Pix[o] = clamp8(t + (b-t)*wy)
				o++
			}
		}
	}
}

func (r *Resizer) nearest(dst, src *Image) {
	c := src.C
	stride := src.W * c
	o := 0
	for oy := 0; oy < dst.H; oy++ {
		row := src.Pix[(oy*src.H/dst.H)*stride:]
		for _, ix := range r.x0 {
			o += copy(dst.Pix[o:o+c], row[ix*c:])
		}
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
