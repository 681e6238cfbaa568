package imaging

// The three resize kernels as they stood before the planned kernels of
// resize.go replaced them, verbatim: the oracles the differential test and
// FuzzResizeDifferential hold the product to, byte for byte.

// oracleResizeArea performs box-filter (area averaging) resampling: each output
// pixel is the average of the exact source rectangle it covers. This is the
// anti-aliased downsampler training pipelines use; it preserves the mean of
// the image (a property the tests assert).
func oracleResizeArea(im *Image, w, h int) *Image {
	out := NewImage(w, h, im.C)
	sx := float64(im.W) / float64(w)
	sy := float64(im.H) / float64(h)
	for oy := 0; oy < h; oy++ {
		y0 := float64(oy) * sy
		y1 := y0 + sy
		for ox := 0; ox < w; ox++ {
			x0 := float64(ox) * sx
			x1 := x0 + sx
			for ch := 0; ch < im.C; ch++ {
				var sum, area float64
				for iy := int(y0); iy < im.H && float64(iy) < y1; iy++ {
					// Vertical overlap of source row iy with [y0, y1).
					oy0 := maxf(float64(iy), y0)
					oy1 := minf(float64(iy+1), y1)
					wy := oy1 - oy0
					if wy <= 0 {
						continue
					}
					for ix := int(x0); ix < im.W && float64(ix) < x1; ix++ {
						ox0 := maxf(float64(ix), x0)
						ox1 := minf(float64(ix+1), x1)
						wx := ox1 - ox0
						if wx <= 0 {
							continue
						}
						sum += float64(im.At(ix, iy, ch)) * wx * wy
						area += wx * wy
					}
				}
				if area > 0 {
					out.Set(ox, oy, ch, clamp8(sum/area))
				}
			}
		}
	}
	return out
}

// oracleResizeBilinear samples with the half-pixel-centre convention and linear
// interpolation. When downsampling by large factors it only looks at the
// four neighbours of the sample point, producing the aliasing the paper
// blames for silent accuracy loss.
func oracleResizeBilinear(im *Image, w, h int) *Image {
	out := NewImage(w, h, im.C)
	sx := float64(im.W) / float64(w)
	sy := float64(im.H) / float64(h)
	for oy := 0; oy < h; oy++ {
		fy := (float64(oy)+0.5)*sy - 0.5
		y0 := int(fy)
		if fy < 0 {
			y0 = 0
			fy = 0
		}
		y1 := y0 + 1
		if y1 >= im.H {
			y1 = im.H - 1
		}
		wy := fy - float64(y0)
		for ox := 0; ox < w; ox++ {
			fx := (float64(ox)+0.5)*sx - 0.5
			x0 := int(fx)
			if fx < 0 {
				x0 = 0
				fx = 0
			}
			x1 := x0 + 1
			if x1 >= im.W {
				x1 = im.W - 1
			}
			wx := fx - float64(x0)
			for ch := 0; ch < im.C; ch++ {
				v00 := float64(im.At(x0, y0, ch))
				v10 := float64(im.At(x1, y0, ch))
				v01 := float64(im.At(x0, y1, ch))
				v11 := float64(im.At(x1, y1, ch))
				top := v00 + (v10-v00)*wx
				bot := v01 + (v11-v01)*wx
				out.Set(ox, oy, ch, clamp8(top+(bot-top)*wy))
			}
		}
	}
	return out
}

func oracleResizeNearest(im *Image, w, h int) *Image {
	out := NewImage(w, h, im.C)
	for oy := 0; oy < h; oy++ {
		iy := oy * im.H / h
		for ox := 0; ox < w; ox++ {
			ix := ox * im.W / w
			for ch := 0; ch < im.C; ch++ {
				out.Set(ox, oy, ch, im.At(ix, iy, ch))
			}
		}
	}
	return out
}
