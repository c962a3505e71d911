package nn

import (
	"fmt"

	"scaledl/internal/par"
	"scaledl/internal/tensor"
)

// Conv2D is a 2-D convolution implemented with im2col + GEMM, the same
// strategy as cuDNN's GEMM algorithm that the paper's GPU code relied on.
// Forward and backward parallelize across the batch dimension on the shared
// par pool with a fixed chunk assignment and a fixed-order partial-gradient
// merge, so results are bit-deterministic for a given par.Width().
type Conv2D struct {
	name            string
	in, out         Shape
	filters, kernel int
	stride, pad     int

	// noInputGrad is set by NetDef.Build on a network's first layer, whose
	// dL/dx nothing reads: Backward then computes only the parameter
	// gradients and returns nil.
	noInputGrad bool

	w, b   []float32 // views into packed params: w is F×(C·k·k), b is F
	dw, db []float32 // views into packed grads

	cols   []float32 // im2col scratch: b × (C·k·k) × (oh·ow)
	outBuf []float32
	dxBuf  []float32
	lastX  []float32
	lastB  int
	chunks [][2]int // batch chunk assignment, reused across calls

	// per-chunk backward scratch, reused across calls
	partialDW [][]float32
	partialDB [][]float32
	dcolsBuf  [][]float32

	// Hot-path reuse: tensor.Wrap and a fresh par.For closure would each
	// allocate per call, which the serving batcher's zero-alloc contract
	// forbids. The chunk workers instead run cached method closures that
	// read the call's inputs from fwdX/bwdDY and wrap matrices through
	// per-chunk view slots (fwdV, bwdV) plus the shared weight view wV.
	wV    tensor.Tensor
	fwdV  [][2]tensor.Tensor // per-chunk {cols, out} views
	bwdV  [][4]tensor.Tensor // per-chunk {dy, cols, dcols, partialDW} views
	fwdX  []float32
	bwdDY []float32
	fwdFn func(int)
	bwdFn func(int)
}

// NewConv2D creates a convolution with the given filter count, square kernel,
// stride and zero padding.
func NewConv2D(in Shape, filters, kernel, stride, pad int) *Conv2D {
	if stride <= 0 || kernel <= 0 || filters <= 0 {
		panic("nn: invalid conv geometry")
	}
	oh := tensor.OutDim(in.H, kernel, stride, pad)
	ow := tensor.OutDim(in.W, kernel, stride, pad)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn: conv output %dx%d for input %v", oh, ow, in))
	}
	return &Conv2D{
		name:    fmt.Sprintf("conv%dx%d-%d", kernel, kernel, filters),
		in:      in,
		out:     Shape{C: filters, H: oh, W: ow},
		filters: filters,
		kernel:  kernel,
		stride:  stride,
		pad:     pad,
	}
}

func (l *Conv2D) Name() string    { return l.name }
func (l *Conv2D) OutShape() Shape { return l.out }

func (l *Conv2D) ParamCount() int {
	return l.filters*l.in.C*l.kernel*l.kernel + l.filters
}

func (l *Conv2D) Bind(params, grads []float32) {
	wn := l.filters * l.in.C * l.kernel * l.kernel
	l.w, l.b = params[:wn], params[wn:]
	l.dw, l.db = grads[:wn], grads[wn:]
}

func (l *Conv2D) Init(g *tensor.RNG) {
	fanIn := l.in.C * l.kernel * l.kernel
	fanOut := l.filters * l.kernel * l.kernel
	g.XavierFill(l.w, fanIn, fanOut)
	for i := range l.b {
		l.b[i] = 0
	}
}

func (l *Conv2D) colSize() int {
	return l.in.C * l.kernel * l.kernel * l.out.H * l.out.W
}

func (l *Conv2D) Forward(x []float32, b int, train bool) []float32 {
	inDim, outDim := l.in.Dim(), l.out.Dim()
	if len(x) != b*inDim {
		panic(fmt.Sprintf("nn: %s forward input %d for batch %d×%d", l.name, len(x), b, inDim))
	}
	cs := l.colSize()
	buf(&l.cols, b*cs)
	out := buf(&l.outBuf, b*outDim)
	kcc := l.in.C * l.kernel * l.kernel
	l.chunks = par.AppendChunkRanges(l.chunks[:0], b)
	l.ensureViews(len(l.chunks))
	view(&l.wV, l.w, l.filters, kcc)
	l.fwdX = x
	if l.fwdFn == nil {
		l.fwdFn = l.forwardChunk
	}
	par.For(len(l.chunks), l.fwdFn)
	if train {
		l.lastX, l.lastB = x, b
	}
	return out
}

// forwardChunk runs the im2col + GEMM forward for one batch chunk; the
// call's input rides in l.fwdX (set before par.For fans out).
func (l *Conv2D) forwardChunk(c int) {
	inDim, outDim := l.in.Dim(), l.out.Dim()
	cs := l.colSize()
	kcc := l.in.C * l.kernel * l.kernel
	spatial := l.out.H * l.out.W
	lo, hi := l.chunks[c][0], l.chunks[c][1]
	v := &l.fwdV[c]
	for i := lo; i < hi; i++ {
		ci := l.cols[i*cs : (i+1)*cs]
		tensor.Im2col(ci, l.fwdX[i*inDim:(i+1)*inDim], l.in.C, l.in.H, l.in.W, l.kernel, l.kernel, l.stride, l.pad)
		cm := view(&v[0], ci, kcc, spatial)
		om := view(&v[1], l.outBuf[i*outDim:(i+1)*outDim], l.filters, spatial)
		// Per-filter bias rides in the GEMM store epilogue instead of a
		// second pass over the output.
		tensor.MatMulBiasRow(om, &l.wV, cm, l.b)
	}
}

func (l *Conv2D) Backward(dy []float32, b int) []float32 {
	if l.lastB != b {
		panic("nn: conv Backward batch mismatch with Forward")
	}
	cs := l.colSize()
	kcc := l.in.C * l.kernel * l.kernel
	if !l.noInputGrad {
		clear(buf(&l.dxBuf, b*l.in.Dim()))
	}
	l.chunks = par.AppendChunkRanges(l.chunks[:0], b)
	l.ensureScratch(len(l.chunks), kcc, cs)
	l.ensureViews(len(l.chunks))
	view(&l.wV, l.w, l.filters, kcc)
	l.bwdDY = dy
	if l.bwdFn == nil {
		l.bwdFn = l.backwardChunk
	}
	par.For(len(l.chunks), l.bwdFn)
	// Merge partials in fixed chunk order: deterministic accumulation.
	for w := range l.chunks {
		tensor.AXPY(1, l.partialDW[w], l.dw)
		tensor.AXPY(1, l.partialDB[w], l.db)
	}
	if l.noInputGrad {
		return nil
	}
	return l.dxBuf
}

// backwardChunk accumulates one batch chunk's weight/bias partials and,
// unless the input gradient is elided, its slice of dX; the upstream
// gradient rides in l.bwdDY.
func (l *Conv2D) backwardChunk(w int) {
	inDim, outDim := l.in.Dim(), l.out.Dim()
	cs := l.colSize()
	kcc := l.in.C * l.kernel * l.kernel
	spatial := l.out.H * l.out.W
	lo, hi := l.chunks[w][0], l.chunks[w][1]
	pdw := l.partialDW[w]
	pdb := l.partialDB[w]
	for i := range pdw {
		pdw[i] = 0
	}
	for i := range pdb {
		pdb[i] = 0
	}
	dcols := l.dcolsBuf[w]
	v := &l.bwdV[w]
	pdwMat := view(&v[3], pdw, l.filters, kcc)
	for i := lo; i < hi; i++ {
		dyi := view(&v[0], l.bwdDY[i*outDim:(i+1)*outDim], l.filters, spatial)
		ci := view(&v[1], l.cols[i*cs:(i+1)*cs], kcc, spatial)
		// dW_chunk += dy · colsᵀ
		tensor.MatMulAdd2TransB(pdwMat, dyi, ci)
		// db_chunk += row sums of dy
		for f := 0; f < l.filters; f++ {
			var s float32
			row := dyi.Data[f*spatial : (f+1)*spatial]
			for _, vv := range row {
				s += vv
			}
			pdb[f] += s
		}
		if l.noInputGrad {
			continue
		}
		// dcols = Wᵀ · dy ; dx += col2im(dcols)
		dcm := view(&v[2], dcols[:cs], kcc, spatial)
		tensor.MatMulTransA(dcm, &l.wV, dyi)
		tensor.Col2im(l.dxBuf[i*inDim:(i+1)*inDim], dcols, l.in.C, l.in.H, l.in.W, l.kernel, l.kernel, l.stride, l.pad)
	}
}

// ensureViews grows the per-chunk view slots to nChunks.
func (l *Conv2D) ensureViews(nChunks int) {
	for len(l.fwdV) < nChunks {
		l.fwdV = append(l.fwdV, [2]tensor.Tensor{})
		l.bwdV = append(l.bwdV, [4]tensor.Tensor{})
	}
}

func (l *Conv2D) ensureScratch(nChunks, kcc, cs int) {
	for len(l.partialDW) < nChunks {
		l.partialDW = append(l.partialDW, make([]float32, l.filters*kcc))
		l.partialDB = append(l.partialDB, make([]float32, l.filters))
		l.dcolsBuf = append(l.dcolsBuf, make([]float32, cs))
	}
	for i := range l.dcolsBuf {
		if len(l.dcolsBuf[i]) < cs {
			l.dcolsBuf[i] = make([]float32, cs)
		}
	}
}

// WeightCount reports the weight-matrix element count at the front of the
// layer's packed parameter view (QuantizableLayer); the F biases behind it
// stay fp32 under int8 quantization.
func (l *Conv2D) WeightCount() int { return l.filters * l.in.C * l.kernel * l.kernel }

func (l *Conv2D) FwdFLOPsPerSample() int64 {
	macs := int64(l.filters) * int64(l.in.C) * int64(l.kernel) * int64(l.kernel) * int64(l.out.H) * int64(l.out.W)
	return 2 * macs
}
