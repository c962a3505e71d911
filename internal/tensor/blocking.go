package tensor

// Cache-blocking parameters of the packed GEMM engine and its neighbors,
// following the BLIS/GotoBLAS hierarchy the paper's KNL kernels are built on
// (You, Buluç & Demmel §4: cache blocking plus vectorization is what lifts
// single-node efficiency toward peak). Every blocking decision in the
// package — the per-tier GEMM blocks, the Transpose tile, the Im2col
// tap-blocking — derives from the two cache budgets below, so a kernel-tier
// change can never leave pack, transpose and im2col disagreeing about what
// fits where.
//
// The five loops around the micro-kernel partition C into NC-wide column
// slabs, the K dimension into KC-deep panels, and the M dimension into
// MC-tall blocks; inside a block the micro-kernel computes one MR×NR
// register tile per call from packed operand panels:
//
//	packed A panel: MR rows  × KC depth, laid out p-major (MR floats per k)
//	packed B panel: KC depth × NR cols, laid out p-major (NR floats per k)
//
// MR×NR is sized to the register file of the selected tier (see
// microkernel.go), KC so one KC×NR packed B panel stays L1-resident while
// streaming, MC so the packed MC×KC A block stays L2-resident, and NC bounds
// the packed B slab. This mirrors the paper's MCDRAM/L2 blocking discussion
// at CPU-cache scale.
const (
	// l1Budget and l2Budget are the conservative per-core cache budgets all
	// blocking below is derived from. 32 KiB L1d is the x86 floor of the
	// last two decades; 512 KiB undershoots every modern L2 so packed A
	// blocks never thrash.
	l1Budget = 32 << 10
	l2Budget = 512 << 10

	// maxMR and maxNR bound every tier's register tile; the shared
	// micro-kernel output buffer (kernTile) is sized by them.
	maxMR = 16
	maxNR = 16
)

// kernTile is the micro-kernel output buffer shared by all tiers: tier
// (mr, nr) tiles are stored row-major at stride nr in its prefix. 1 KiB,
// lives on the gemmChunk stack.
type kernTile = [maxMR * maxNR]float32

// Blocking is one tier's cache-blocking parameter set.
type Blocking struct {
	// MR and NR are the register-tile height and width: the C rows and
	// columns produced per micro-kernel call.
	MR, NR int
	// MC is the M-dimension cache block: rows of A packed per L2-resident
	// block. Always a multiple of MR.
	MC int
	// KC is the K-dimension cache block: depth of the packed A/B panels.
	KC int
	// NC is the N-dimension cache block: columns of B packed per slab.
	// Always a multiple of NR.
	NC int
}

// blockingFor derives a tier's cache blocks from its register tile and the
// shared cache budgets: KC so the streamed KC×NR B panel uses at most half
// of L1 (the other half covers the A micro-panel and the output tile), MC
// so the packed MC×KC A block fills at most half of L2, NC fixed at 1024
// columns rounded to the tile width.
func blockingFor(mr, nr int) Blocking {
	if mr < 1 || mr > maxMR || nr < 1 || nr > maxNR {
		panic("tensor: register tile exceeds kernTile bounds")
	}
	kc := l1Budget / 2 / (4 * nr)
	if kc > 256 {
		kc = 256 // beyond this, packing granularity beats marginal reuse
	}
	mc := l2Budget / 2 / (4 * kc)
	mc -= mc % mr
	nc := 1024
	nc -= nc % nr
	return Blocking{MR: mr, NR: nr, MC: mc, KC: kc, NC: nc}
}

// transposeBlock is the square tile edge of the cache-blocked Transpose:
// source and destination tiles stay L1-resident together, which is exactly
// the l1Budget with 4-byte elements (2·64²·4 B = 32 KiB).
const transposeBlock = 64

// transposeStrip is the source-row strip Transpose moves per sweep, and the
// row/column strip of the transposing packers (pack.go); it must match the
// literal four-way unroll in all of them.
const transposeStrip = 4

// im2colSrcBudget is the Im2col/Col2im tap-blocking threshold: when the
// source rows touched by one output-row block exceed this many floats, the
// tap loops are blocked over output rows so each block's source rows are
// re-read from L1 across all kh·kw kernel taps instead of from L2 across
// the whole image. Half the L1 budget, leaving the other half for the
// destination stream.
const im2colSrcBudget = l1Budget / 2 / 4

// im2colRowBlock returns the output-row block height for an image of width
// w with kernel height kh and the given stride: the largest block whose
// touched source rows ((block-1)·stride + kh rows of w floats) fit the
// Im2col source budget, at least 1.
func im2colRowBlock(w, kh, stride int) int {
	rows := im2colSrcBudget / w
	if rows < 1 {
		rows = 1
	}
	block := (rows - kh) / stride
	block++ // (block-1)·stride + kh ≤ rows
	if block < 1 {
		block = 1
	}
	return block
}
