package nn

import (
	"fmt"
	"math"

	"scaledl/internal/tensor"
)

// PoolKind selects max or average pooling.
type PoolKind int

const (
	// MaxPool takes the maximum of each window.
	MaxPool PoolKind = iota
	// AvgPool takes the arithmetic mean of each window.
	AvgPool
)

// Pool2D is a spatial pooling layer over square windows, with optional
// zero-free padding: out-of-bounds taps are skipped (max ignores them,
// average divides by the actual tap count), so a 3×3/1 pad-1 max pool — the
// inception pooling branch — preserves spatial dimensions.
type Pool2D struct {
	name    string
	kind    PoolKind
	in, out Shape
	kernel  int
	stride  int
	pad     int
	outBuf  []float32
	dxBuf   []float32
	argmax  []int32 // winners for max pooling, b × outDim
	lastB   int
}

// NewPool2D creates an unpadded pooling layer.
func NewPool2D(in Shape, kind PoolKind, kernel, stride int) *Pool2D {
	return NewPool2DPad(in, kind, kernel, stride, 0)
}

// NewPool2DPad creates a pooling layer with padding.
func NewPool2DPad(in Shape, kind PoolKind, kernel, stride, pad int) *Pool2D {
	if kernel <= 0 || stride <= 0 || pad < 0 || pad >= kernel {
		panic("nn: invalid pool geometry")
	}
	oh := tensor.OutDim(in.H, kernel, stride, pad)
	ow := tensor.OutDim(in.W, kernel, stride, pad)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn: pool output %dx%d for input %v", oh, ow, in))
	}
	kindName := "max"
	if kind == AvgPool {
		kindName = "avg"
	}
	return &Pool2D{
		name:   fmt.Sprintf("%spool%d/%d", kindName, kernel, stride),
		kind:   kind,
		in:     in,
		out:    Shape{C: in.C, H: oh, W: ow},
		kernel: kernel,
		stride: stride,
		pad:    pad,
	}
}

func (l *Pool2D) Name() string                 { return l.name }
func (l *Pool2D) OutShape() Shape              { return l.out }
func (l *Pool2D) ParamCount() int              { return 0 }
func (l *Pool2D) Bind(params, grads []float32) {}
func (l *Pool2D) Init(g *tensor.RNG)           {}

func (l *Pool2D) Forward(x []float32, b int, train bool) []float32 {
	inDim, outDim := l.in.Dim(), l.out.Dim()
	if len(x) != b*inDim {
		panic(fmt.Sprintf("nn: %s forward input %d for batch %d×%d", l.name, len(x), b, inDim))
	}
	out := buf(&l.outBuf, b*outDim)
	if l.kind == MaxPool && train {
		if cap(l.argmax) < b*outDim {
			l.argmax = make([]int32, b*outDim)
		}
		l.argmax = l.argmax[:b*outDim]
	}
	if l.kind == MaxPool && l.kernel == 2 && l.stride == 2 && l.pad == 0 {
		l.maxPool2x2(x, out, b, train)
	} else {
		l.forwardGeneric(x, out, b, train)
	}
	l.lastB = b
	return out
}

// forwardGeneric is Forward for any geometry: padded windows skip their
// out-of-bounds taps.
func (l *Pool2D) forwardGeneric(x, out []float32, b int, train bool) {
	inDim, outDim := l.in.Dim(), l.out.Dim()
	h, w := l.in.H, l.in.W
	oh, ow := l.out.H, l.out.W
	for i := 0; i < b; i++ {
		for c := 0; c < l.in.C; c++ {
			plane := x[i*inDim+c*h*w : i*inDim+(c+1)*h*w]
			outPlane := out[i*outDim+c*oh*ow : i*outDim+(c+1)*oh*ow]
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					y0, x0 := oy*l.stride-l.pad, ox*l.stride-l.pad
					switch l.kind {
					case MaxPool:
						var best float32
						bestIdx := int32(-1)
						for ky := 0; ky < l.kernel; ky++ {
							yy := y0 + ky
							if yy < 0 {
								continue
							}
							if yy >= h {
								break
							}
							for kx := 0; kx < l.kernel; kx++ {
								xx := x0 + kx
								if xx < 0 {
									continue
								}
								if xx >= w {
									break
								}
								if v := plane[yy*w+xx]; bestIdx < 0 || v > best {
									best = v
									bestIdx = int32(yy*w + xx)
								}
							}
						}
						outPlane[oy*ow+ox] = best
						if train {
							l.argmax[i*outDim+c*oh*ow+oy*ow+ox] = bestIdx
						}
					case AvgPool:
						var s float32
						var cnt float32
						for ky := 0; ky < l.kernel; ky++ {
							yy := y0 + ky
							if yy < 0 {
								continue
							}
							if yy >= h {
								break
							}
							for kx := 0; kx < l.kernel; kx++ {
								xx := x0 + kx
								if xx < 0 {
									continue
								}
								if xx >= w {
									break
								}
								s += plane[yy*w+xx]
								cnt++
							}
						}
						outPlane[oy*ow+ox] = s / cnt
					}
				}
			}
		}
	}
}

// maxPool2x2 is Forward for the unpadded 2×2/stride-2 max pool, the
// geometry of LeNet and TinyCNN, where the generic loop's per-tap bounds
// checks and data-dependent branches dominate. Each output row is made from
// a pair of input rows by maxPoolRow2x2.
func (l *Pool2D) maxPool2x2(x, out []float32, b int, train bool) {
	h, w := l.in.H, l.in.W
	oh, ow := l.out.H, l.out.W
	var am []int32
	for p := 0; p < b*l.in.C; p++ {
		plane := x[p*h*w : (p+1)*h*w]
		for oy := 0; oy < oh; oy++ {
			o := (p*oh + oy) * ow
			if train {
				am = l.argmax[o : o+ow]
			}
			y0 := 2 * oy * w
			maxPoolRow2x2(out[o:o+ow], am, plane[y0:y0+w], plane[y0+w:y0+2*w], int32(y0), int32(w))
		}
	}
}

// maxPoolRow2x2 writes one output row of a 2×2/stride-2 max pool from input
// rows r0 and r1, which start at index base of their plane and are w wide.
// It reads the four taps in the generic loop's order and updates value and
// argmax on a strict > through conditional moves (maxTap): the first maximum
// wins ties, a leading NaN sticks and a later NaN never wins, exactly as in the
// generic loop. An odd trailing column is outside every window, as there.
// A nil am skips recording the argmax.
func maxPoolRow2x2(out []float32, am []int32, r0, r1 []float32, base, w int32) {
	r0 = r0[:2*len(out)]
	r1 = r1[:len(r0)]
	o := 0
	for x := 1; x < len(r0); x += 2 {
		i := base + int32(x) - 1
		best, bi := r0[x-1], i
		best, bi = maxTap(best, bi, r0[x], i+1)
		best, bi = maxTap(best, bi, r1[x-1], i+w)
		best, bi = maxTap(best, bi, r1[x], i+w+1)
		out[o] = best
		if am != nil {
			am[o] = bi
		}
		o++
	}
}

// maxTap returns (v, vi) when v > best and (best, bi) otherwise, without a
// branch: the compiler lowers an if that assigns a single integer variable
// to a conditional move, so the value is selected as its bits and each
// assignment sits under its own if.
func maxTap(best float32, bi int32, v float32, vi int32) (float32, int32) {
	bb, vb := math.Float32bits(best), math.Float32bits(v)
	if v > best {
		bb = vb
	}
	if v > best {
		bi = vi
	}
	return math.Float32frombits(bb), bi
}

func (l *Pool2D) Backward(dy []float32, b int) []float32 {
	if l.lastB != b {
		panic("nn: pool Backward batch mismatch with Forward")
	}
	inDim, outDim := l.in.Dim(), l.out.Dim()
	dx := buf(&l.dxBuf, b*inDim)
	clear(dx)
	h, w := l.in.H, l.in.W
	oh, ow := l.out.H, l.out.W
	if l.kind == MaxPool {
		// Scatter each output's gradient to the tap that won its window.
		for p := 0; p < b*l.in.C; p++ {
			dxPlane := dx[p*h*w : (p+1)*h*w]
			am := l.argmax[p*oh*ow : (p+1)*oh*ow]
			for j, g := range dy[p*oh*ow : (p+1)*oh*ow] {
				if idx := am[j]; idx >= 0 {
					dxPlane[idx] += g
				}
			}
		}
		return dx
	}
	for i := 0; i < b; i++ {
		for c := 0; c < l.in.C; c++ {
			dxPlane := dx[i*inDim+c*h*w : i*inDim+(c+1)*h*w]
			dyPlane := dy[i*outDim+c*oh*ow : i*outDim+(c+1)*oh*ow]
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					g := dyPlane[oy*ow+ox]
					y0, x0 := oy*l.stride-l.pad, ox*l.stride-l.pad
					cnt := 0
					for ky := 0; ky < l.kernel; ky++ {
						yy := y0 + ky
						if yy < 0 {
							continue
						}
						if yy >= h {
							break
						}
						for kx := 0; kx < l.kernel; kx++ {
							xx := x0 + kx
							if xx < 0 {
								continue
							}
							if xx >= w {
								break
							}
							cnt++
						}
					}
					share := g / float32(cnt)
					for ky := 0; ky < l.kernel; ky++ {
						yy := y0 + ky
						if yy < 0 {
							continue
						}
						if yy >= h {
							break
						}
						for kx := 0; kx < l.kernel; kx++ {
							xx := x0 + kx
							if xx < 0 {
								continue
							}
							if xx >= w {
								break
							}
							dxPlane[yy*w+xx] += share
						}
					}
				}
			}
		}
	}
	return dx
}

func (l *Pool2D) FwdFLOPsPerSample() int64 {
	return int64(l.out.Dim()) * int64(l.kernel) * int64(l.kernel)
}
