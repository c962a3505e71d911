package tensor

import (
	"scaledl/internal/par"
)

// This file is the packed, register-tiled GEMM engine. Every matrix-product
// variant in the module — plain, accumulating, either-operand-transposed,
// bias-fused — funnels into one blocked kernel instead of five ad-hoc loop
// nests: the transposed layouts are absorbed while packing the operands
// (pack.go), so the gradient-path products run exactly as fast as the
// forward one, and the bias add of the conv/dense layers rides along in the
// store epilogue instead of a second pass over the output.
//
// The A operand may also arrive pre-packed (PackedA): a caller that reuses
// one A across many products lays it out once, and the engine slices its
// panels instead of packing per product. Packing only moves (and, for the
// 16-bit paths, narrows through the same encoder) elements, so the
// determinism contract below holds unchanged on that path.
//
// The blocked driver is generic over the packed-panel element type: float32
// panels feed the active tier's fp32 micro-kernel, uint16 panels (bf16 or
// IEEE-half storage, selected by SetComputePrecision) feed its low-precision
// kernels with fp32 accumulation. Blocking parameters and the micro-kernel
// come from the dispatch tier selected at init (microkernel.go).
//
// # Determinism
//
// Every element of C is the k-ordered sum Σ_p A[i][p]·B[p][j]: the
// micro-kernel accumulates p strictly in order inside a KC panel, and the
// panels are applied in order by the serial pc loop. Parallel fan-out
// partitions only the M dimension (static par.ChunkRanges tiles), so each
// output element is produced entirely by one task with the same summation
// order as a serial run — results are bit-identical across pool widths,
// scheduling, and par.SetSerial, which is stronger than the per-width
// contract the rest of the module needs. Across kernel tiers the contract is
// weaker: KC is identical for every tier, so panel boundaries (and thus the
// fp32 summation order) match, but the FMA tiers contract the multiply-add
// rounding step the mul+add tiers keep — values agree to a few ULPs, not
// bits (doc.go spells out the full contract).

// gemmParallelFlops is the multiply-accumulate count above which a single
// GEMM fans its row tiles out across the par pool. Below it (every per-image
// conv GEMM in the model zoo) goroutine dispatch costs more than it saves,
// and the engine stays strictly allocation-free.
const gemmParallelFlops = 1 << 21

// gemmScratch and gemmScratch16 recycle the packing buffers for the fp32 and
// low-precision paths; see par.Arena. After warm-up the hot path performs
// zero allocations per call (pinned by TestGEMMZeroAllocs).
var (
	gemmScratch   par.Arena[float32]
	gemmScratch16 par.Arena[uint16]
	// gemmTileScratch recycles the micro-kernel output tiles (one per
	// concurrent chunk). The kernel is reached through a func value, so a
	// chunk-local tile array would defeat escape analysis and cost a heap
	// allocation per chunk; arena slots keep the hot path allocation-free.
	gemmTileScratch par.Arena[kernTile]
)

// gemmOp describes one C = α-less GEMM: C (m×n, row stride ldc) gains A·B
// with A read through strides (rsA, csA) as a logical m×k matrix and B
// through (rsB, csB) as a logical k×n one. acc accumulates into C instead of
// overwriting; biasRow/biasCol (mutually exclusive, only with acc=false)
// fold a per-row or per-column bias into the first store. pa, when set, is
// A already packed (PackedA); the engine reads its panels instead of packing
// a when the pack matches the running tier and precision.
type gemmOp struct {
	c        []float32
	ldc      int
	a        []float32
	rsA, csA int
	b        []float32
	rsB, csB int
	m, n, k  int
	acc      bool
	biasRow  []float32
	biasCol  []float32
	pa       *PackedA
}

// MatMul computes C = A·B for row-major matrices. A is m×k, B is k×n, and C
// must be m×n.
func MatMul(c, a, b *Tensor) {
	m, n, k := checkMatMul(c, a, b, false, false)
	gemmRun(gemmOp{c: c.Data, ldc: n, a: a.Data, rsA: k, csA: 1, b: b.Data, rsB: n, csB: 1, m: m, n: n, k: k})
}

// MatMulAdd computes C += A·B (accumulating into C).
func MatMulAdd(c, a, b *Tensor) {
	m, n, k := checkMatMul(c, a, b, false, false)
	gemmRun(gemmOp{c: c.Data, ldc: n, a: a.Data, rsA: k, csA: 1, b: b.Data, rsB: n, csB: 1, m: m, n: n, k: k, acc: true})
}

// MatMulBiasRow computes C = A·B + bias with bias broadcast along rows:
// C[i][j] = (A·B)[i][j] + bias[i]. It is the conv-forward epilogue (one bias
// per filter row) fused into the GEMM store.
func MatMulBiasRow(c, a, b *Tensor, bias []float32) {
	m, n, k := checkMatMul(c, a, b, false, false)
	if len(bias) != m {
		panic("tensor: MatMulBiasRow bias length mismatch")
	}
	gemmRun(gemmOp{c: c.Data, ldc: n, a: a.Data, rsA: k, csA: 1, b: b.Data, rsB: n, csB: 1, m: m, n: n, k: k, biasRow: bias})
}

// MatMulTransA computes C = Aᵀ·B where A is stored k×m (so Aᵀ is m×k) and B
// is k×n. The transposition is absorbed at pack time.
func MatMulTransA(c, a, b *Tensor) {
	m, n, k := checkMatMul(c, a, b, true, false)
	gemmRun(gemmOp{c: c.Data, ldc: n, a: a.Data, rsA: 1, csA: m, b: b.Data, rsB: n, csB: 1, m: m, n: n, k: k})
}

// MatMulAddTransA computes C += Aᵀ·B where A is stored k×m and B is k×n.
// This is the dense-layer weight-gradient kernel (dW += dYᵀ·X) without any
// temporary.
func MatMulAddTransA(c, a, b *Tensor) {
	m, n, k := checkMatMul(c, a, b, true, false)
	gemmRun(gemmOp{c: c.Data, ldc: n, a: a.Data, rsA: 1, csA: m, b: b.Data, rsB: n, csB: 1, m: m, n: n, k: k, acc: true})
}

// MatMulTransB computes C = A·Bᵀ where A is m×k and B is stored n×k.
func MatMulTransB(c, a, b *Tensor) {
	m, n, k := checkMatMul(c, a, b, false, true)
	gemmRun(gemmOp{c: c.Data, ldc: n, a: a.Data, rsA: k, csA: 1, b: b.Data, rsB: 1, csB: k, m: m, n: n, k: k})
}

// MatMulTransBBiasCol computes C = A·Bᵀ + bias with bias broadcast along
// columns: C[i][j] = (A·Bᵀ)[i][j] + bias[j]. It is the dense-forward
// epilogue (one bias per output unit) fused into the GEMM store.
func MatMulTransBBiasCol(c, a, b *Tensor, bias []float32) {
	m, n, k := checkMatMul(c, a, b, false, true)
	if len(bias) != n {
		panic("tensor: MatMulTransBBiasCol bias length mismatch")
	}
	gemmRun(gemmOp{c: c.Data, ldc: n, a: a.Data, rsA: k, csA: 1, b: b.Data, rsB: 1, csB: k, m: m, n: n, k: k, biasCol: bias})
}

// MatMulAdd2TransB computes C += A·Bᵀ where A is m×k and B is stored n×k,
// accumulating into C. This is the convolution weight-gradient kernel
// (dW += dy·colsᵀ).
func MatMulAdd2TransB(c, a, b *Tensor) {
	m, n, k := checkMatMul(c, a, b, false, true)
	gemmRun(gemmOp{c: c.Data, ldc: n, a: a.Data, rsA: k, csA: 1, b: b.Data, rsB: 1, csB: k, m: m, n: n, k: k, acc: true})
}

// PackedA is a GEMM A operand laid out once, ahead of the products that use
// it, in the engine's own panel format: the whole logical m×k matrix in the
// active tier's MR-row, KC-deep panels, narrowed to the current compute
// precision. A layer that multiplies the same weight matrix by many
// right-hand sides (Conv2D runs one product per image) packs it once per
// pass instead of once per product. Packing does no arithmetic beyond the
// bf16/fp16 narrowing the per-product path applies too, so a product through
// a PackedA is bit-identical to the same product through MatMul.
//
// The pack is a snapshot: it records the source, the tier and the precision
// it was made under. A product running under another tier or precision
// falls back to packing the recorded source itself; after the source
// changes, call Pack again. Products may read one PackedA concurrently.
type PackedA struct {
	a        []float32
	rs, cs   int
	m, k     int
	kr       *kernel
	prec     Precision
	panels   []float32
	panels16 []uint16
}

// Pack lays out a (or aᵀ when transA is set, with a stored k×m) for the
// active tier and compute precision. The panel buffer grows to the largest
// operand packed so far and is reused, so a warm Pack does not allocate.
func (p *PackedA) Pack(a *Tensor, transA bool) {
	p.m, p.k = a.Shape[0], a.Shape[1]
	p.rs, p.cs = p.k, 1
	if transA {
		p.m, p.k = p.k, p.m
		p.rs, p.cs = 1, p.m
	}
	p.a = a.Data
	p.kr, p.prec = active, ComputePrecision()
	switch p.prec {
	case BFloat16:
		p.panels16 = packWhole(p, p.panels16, packABF16)
	case Float16:
		p.panels16 = packWhole(p, p.panels16, packAFP16)
	default:
		p.panels = packWhole(p, p.panels, packA)
	}
}

// packWhole packs all of p's source into buf (grown to fit) with the engine's
// A packer, one KC panel after another: panel pc starts at pc·rows, where
// rows is m rounded up to the tile height.
func packWhole[E panelElem](p *PackedA, buf []E, pack func(dst []E, a []float32, rs, cs, i0, p0, mc, kc, mr int)) []E {
	bl := p.kr.bl
	rows := (p.m + bl.MR - 1) / bl.MR * bl.MR
	if n := rows * p.k; cap(buf) < n {
		buf = make([]E, n)
	} else {
		buf = buf[:n]
	}
	for pc := 0; pc < p.k; pc += bl.KC {
		pack(buf[pc*rows:], p.a, p.rs, p.cs, 0, pc, p.m, min(p.k-pc, bl.KC), bl.MR)
	}
	return buf
}

// MatMul computes C = A·B with A the packed operand (m×k) and B k×n.
func (p *PackedA) MatMul(c, b *Tensor) {
	gemmRun(p.op(c, b))
}

// MatMulBiasRow computes C = A·B + bias with bias broadcast along rows, as
// the package-level MatMulBiasRow does, with A the packed operand.
func (p *PackedA) MatMulBiasRow(c, b *Tensor, bias []float32) {
	if len(bias) != p.m {
		panic("tensor: MatMulBiasRow bias length mismatch")
	}
	op := p.op(c, b)
	op.biasRow = bias
	gemmRun(op)
}

// op validates B and C against the packed shape and builds the product.
func (p *PackedA) op(c, b *Tensor) gemmOp {
	n := b.Shape[1]
	if b.Shape[0] != p.k {
		panic("tensor: MatMul inner dimension mismatch")
	}
	if c.Shape[0] != p.m || c.Shape[1] != n {
		panic("tensor: MatMul output shape mismatch")
	}
	return gemmOp{c: c.Data, ldc: n, a: p.a, rsA: p.rs, csA: p.cs, b: b.Data, rsB: n, csB: 1, m: p.m, n: n, k: p.k, pa: p}
}

// matches reports whether p (possibly nil) was packed for tier kr at
// precision prec, so its panels can stand in for the engine's own packing.
func (p *PackedA) matches(kr *kernel, prec Precision) bool {
	return p != nil && p.kr == kr && p.prec == prec
}

// checkMatMul validates the operand shapes of a (possibly transposed)
// product and returns the logical (m, n, k).
func checkMatMul(c, a, b *Tensor, transA, transB bool) (m, n, k int) {
	m, k = a.Shape[0], a.Shape[1]
	if transA {
		k, m = m, k
	}
	kb, n := b.Shape[0], b.Shape[1]
	if transB {
		n, kb = kb, n
	}
	if k != kb {
		panic("tensor: MatMul inner dimension mismatch")
	}
	if c.Shape[0] != m || c.Shape[1] != n {
		panic("tensor: MatMul output shape mismatch")
	}
	return m, n, k
}

// panelElem constrains the packed-panel element type: full-precision panels
// are float32, low-precision panels are uint16 lanes (bf16 or IEEE half).
type panelElem interface{ float32 | uint16 }

// gemmEngine binds one GEMM execution to a panel element type: the active
// tier's blocking and micro-kernel for that storage format, the matching
// packers, and the scratch arena the packed panels come from. Values are
// built on the gemmRun stack per call — only the arenas are shared state.
type gemmEngine[E panelElem] struct {
	bl    Blocking
	kern  func(ap, bp []E, kc int, t *kernTile)
	packA func(dst []E, a []float32, rs, cs, i0, p0, mc, kc, mr int)
	packB func(dst []E, b []float32, rs, cs, p0, j0, nc, kc, nr int)
	arena *par.Arena[E]
	// preA holds the op's A operand already packed for this tier and
	// storage (PackedA); nil means pack A per MC block.
	preA []E
}

// Top-level packer adapters: fixing the encoder here (instead of closing
// over it in gemmRun) keeps engine construction allocation-free.
func packABF16(dst []uint16, a []float32, rs, cs, i0, p0, mc, kc, mr int) {
	packA16(dst, a, rs, cs, i0, p0, mc, kc, mr, f32ToBF16)
}
func packBBF16(dst []uint16, b []float32, rs, cs, p0, j0, nc, kc, nr int) {
	packB16(dst, b, rs, cs, p0, j0, nc, kc, nr, f32ToBF16)
}
func packAFP16(dst []uint16, a []float32, rs, cs, i0, p0, mc, kc, mr int) {
	packA16(dst, a, rs, cs, i0, p0, mc, kc, mr, f32ToFP16)
}
func packBFP16(dst []uint16, b []float32, rs, cs, p0, j0, nc, kc, nr int) {
	packB16(dst, b, rs, cs, p0, j0, nc, kc, nr, f32ToFP16)
}

// gemmRun snapshots the active tier and compute precision, then hands the op
// to the engine instantiation for the selected panel storage.
func gemmRun(op gemmOp) {
	if op.m == 0 || op.n == 0 {
		return
	}
	if op.k == 0 {
		gemmEpilogueOnly(op)
		return
	}
	kr := active
	prec := ComputePrecision()
	pre := op.pa.matches(kr, prec)
	switch prec {
	case BFloat16:
		e := gemmEngine[uint16]{bl: kr.bl, kern: kr.kernBF16, packA: packABF16, packB: packBBF16, arena: &gemmScratch16}
		if pre {
			e.preA = op.pa.panels16
		}
		e.run(op)
	case Float16:
		e := gemmEngine[uint16]{bl: kr.bl, kern: kr.kernFP16, packA: packAFP16, packB: packBFP16, arena: &gemmScratch16}
		if pre {
			e.preA = op.pa.panels16
		}
		e.run(op)
	default:
		e := gemmEngine[float32]{bl: kr.bl, kern: kr.kern, packA: packA, packB: packB, arena: &gemmScratch}
		if pre {
			e.preA = op.pa.panels
		}
		e.run(op)
	}
}

// run drives the blocked loops: jc over N in NC slabs, pc over K in KC
// panels (B packed once per slab×panel), then the M dimension — fanned out
// over the pool in static row-tile chunks when the product is big enough —
// packs A in MC blocks and sweeps the micro-kernel.
func (e gemmEngine[E]) run(op gemmOp) {
	m, n, k := op.m, op.n, op.k
	bl := e.bl
	mTiles := (m + bl.MR - 1) / bl.MR
	var chunks [][2]int
	if par.Width() > 1 && mTiles >= 2 && m*n*k >= gemmParallelFlops {
		chunks = par.ChunkRanges(mTiles)
	}
	nChunks := len(chunks)
	if nChunks == 0 {
		nChunks = 1
	}
	kcMax := k
	if kcMax > bl.KC {
		kcMax = bl.KC
	}
	ncMax := (n + bl.NR - 1) / bl.NR * bl.NR
	if ncMax > bl.NC {
		ncMax = bl.NC
	}
	aMax := 0 // per-chunk A packing space; none when A arrives pre-packed
	if e.preA == nil {
		aMax = min(mTiles*bl.MR, bl.MC) * kcMax
	}
	buf := e.arena.Get(ncMax*kcMax + nChunks*aMax)
	bBuf := buf[:ncMax*kcMax]
	aBufs := buf[ncMax*kcMax:]
	tiles := gemmTileScratch.Get(nChunks)
	for jc := 0; jc < n; jc += bl.NC {
		nc := n - jc
		if nc > bl.NC {
			nc = bl.NC
		}
		for pc := 0; pc < k; pc += bl.KC {
			kc := k - pc
			if kc > bl.KC {
				kc = bl.KC
			}
			e.packB(bBuf, op.b, op.rsB, op.csB, pc, jc, nc, kc, bl.NR)
			first := pc == 0
			if len(chunks) <= 1 {
				e.chunk(op, aBufs[:aMax], bBuf, &tiles[0], jc, pc, nc, kc, 0, mTiles, first)
			} else {
				e.fanOut(op, aBufs, aMax, bBuf, tiles, jc, pc, nc, kc, chunks, first)
			}
		}
	}
	gemmTileScratch.Put(tiles)
	e.arena.Put(buf)
}

// fanOut runs one (jc, pc) panel's row tiles across the pool. It lives apart
// from run so the serial path never materializes the closure (that would
// cost an allocation per call even when it isn't taken). Chunk boundaries
// come from par.ChunkRanges, so tile ownership is static and each chunk
// packs A into its own slice of the scratch buffer.
func (e gemmEngine[E]) fanOut(op gemmOp, aBufs []E, aMax int, bBuf []E, tiles []kernTile, jc, pc, nc, kc int, chunks [][2]int, first bool) {
	par.For(len(chunks), func(ci int) {
		e.chunk(op, aBufs[ci*aMax:][:aMax], bBuf, &tiles[ci], jc, pc, nc, kc, chunks[ci][0], chunks[ci][1], first)
	})
}

// chunk computes the row tiles [tileLo, tileHi) of one (jc, pc) panel: for
// each MC block it packs A (or, when A arrived pre-packed, slices the
// block's panels out of the PackedA: panel pc starts at pc·mTiles·MR, and
// row i0 of it at i0·kc) and sweeps the packed B panels with the
// micro-kernel, storing each MR×NR register tile through storeTile.
func (e gemmEngine[E]) chunk(op gemmOp, aBuf, bBuf []E, tile *kernTile, jc, pc, nc, kc, tileLo, tileHi int, first bool) {
	mr, nr := e.bl.MR, e.bl.NR
	mcMax := e.bl.MC
	rowEnd := tileHi * mr
	if rowEnd > op.m {
		rowEnd = op.m
	}
	preRows := (op.m + mr - 1) / mr * mr
	for i0 := tileLo * mr; i0 < rowEnd; i0 += mcMax {
		mc := rowEnd - i0
		if mc > mcMax {
			mc = mcMax
		}
		if e.preA != nil {
			aBuf = e.preA[pc*preRows+i0*kc:]
		} else {
			e.packA(aBuf, op.a, op.rsA, op.csA, i0, pc, mc, kc, mr)
		}
		mcTiles := (mc + mr - 1) / mr
		for jr := 0; jr < nc; jr += nr {
			bp := bBuf[(jr/nr)*nr*kc:][: nr*kc : nr*kc]
			nrv := nc - jr
			if nrv > nr {
				nrv = nr
			}
			for ti := 0; ti < mcTiles; ti++ {
				e.kern(aBuf[ti*mr*kc:][:mr*kc], bp, kc, tile)
				row := i0 + ti*mr
				mrv := op.m - row
				if mrv > mr {
					mrv = mr
				}
				storeTile(op, row, jc+jr, mrv, nrv, nr, tile, first)
			}
		}
	}
}

// storeTile writes the valid mr×nr region of a register tile (row-major at
// stride ts) into C. The first K panel overwrites (or seeds with the fused
// bias); later panels and accumulate-mode ops add.
func storeTile(op gemmOp, row, col, mr, nr, ts int, t *kernTile, first bool) {
	acc := op.acc || !first
	for i := 0; i < mr; i++ {
		ci := op.c[(row+i)*op.ldc+col:][:nr]
		ti := t[i*ts:][:nr]
		switch {
		case acc:
			for j, v := range ti {
				ci[j] += v
			}
		case op.biasRow != nil:
			br := op.biasRow[row+i]
			for j, v := range ti {
				ci[j] = v + br
			}
		case op.biasCol != nil:
			bc := op.biasCol[col:][:nr]
			for j, v := range ti {
				ci[j] = v + bc[j]
			}
		default:
			copy(ci, ti)
		}
	}
}

// gemmEpilogueOnly handles the degenerate k = 0 product: the sum over an
// empty K dimension is zero, so C is zeroed (or seeded with the bias) unless
// the op accumulates, in which case it is untouched.
func gemmEpilogueOnly(op gemmOp) {
	if op.acc {
		return
	}
	for i := 0; i < op.m; i++ {
		ci := op.c[i*op.ldc:][:op.n]
		switch {
		case op.biasRow != nil:
			br := op.biasRow[i]
			for j := range ci {
				ci[j] = br
			}
		case op.biasCol != nil:
			copy(ci, op.biasCol[:op.n])
		default:
			for j := range ci {
				ci[j] = 0
			}
		}
	}
}

// MatVec computes y = A·x for a row-major m×n matrix A, through the active
// tier's dot product (deterministic per tier; see doc.go).
func MatVec(y []float32, a *Tensor, x []float32) {
	m, n := a.Shape[0], a.Shape[1]
	if len(x) != n || len(y) != m {
		panic("tensor: MatVec shape mismatch")
	}
	dot := active.dot
	for i := 0; i < m; i++ {
		y[i] = dot(a.Data[i*n:(i+1)*n], x)
	}
}

// Transpose writes Aᵀ into dst. A is m×n, dst must be n×m. Tiles are
// transposeBlock-square (blocking.go) so source and destination stay
// cache-resident together; within a tile it moves a transposeStrip-row strip
// of the source per sweep, so every strided destination step retires four
// contiguous writes instead of one.
func Transpose(dst, a *Tensor) {
	const strip = transposeStrip
	m, n := a.Shape[0], a.Shape[1]
	if dst.Shape[0] != n || dst.Shape[1] != m {
		panic("tensor: Transpose shape mismatch")
	}
	d, s := dst.Data, a.Data
	for ii := 0; ii < m; ii += transposeBlock {
		iHi := ii + transposeBlock
		if iHi > m {
			iHi = m
		}
		for jj := 0; jj < n; jj += transposeBlock {
			jHi := jj + transposeBlock
			if jHi > n {
				jHi = n
			}
			i := ii
			for ; i+strip <= iHi; i += strip {
				r0 := s[i*n : i*n+n]
				r1 := s[(i+1)*n : (i+1)*n+n]
				r2 := s[(i+2)*n : (i+2)*n+n]
				r3 := s[(i+3)*n : (i+3)*n+n]
				di := jj*m + i
				for j := jj; j < jHi; j++ {
					d[di] = r0[j]
					d[di+1] = r1[j]
					d[di+2] = r2[j]
					d[di+3] = r3[j]
					di += m
				}
			}
			for ; i < iHi; i++ {
				row := s[i*n+jj : i*n+jHi]
				di := jj*m + i
				for _, v := range row {
					d[di] = v
					di += m
				}
			}
		}
	}
}
