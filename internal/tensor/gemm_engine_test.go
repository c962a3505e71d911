package tensor

import (
	"math"
	"testing"

	"scaledl/internal/par"
)

// gemmRef is the retained naive reference the packed engine is validated
// against: a plain triple loop over the logical (possibly transposed)
// operands with a k-ordered scalar sum — no packing, no tiling, no
// parallelism.
func gemmRef(c, a, b *Tensor, transA, transB, acc bool) {
	m, n := c.Shape[0], c.Shape[1]
	var k int
	if transA {
		k = a.Shape[0]
	} else {
		k = a.Shape[1]
	}
	at := func(i, t int) float32 {
		if transA {
			return a.Data[t*a.Shape[1]+i]
		}
		return a.Data[i*a.Shape[1]+t]
	}
	bt := func(t, j int) float32 {
		if transB {
			return b.Data[j*b.Shape[1]+t]
		}
		return b.Data[t*b.Shape[1]+j]
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for t := 0; t < k; t++ {
				s += at(i, t) * bt(t, j)
			}
			if acc {
				c.Data[i*n+j] += s
			} else {
				c.Data[i*n+j] = s
			}
		}
	}
}

// forEachTier runs fn as a subtest once per kernel tier the CPU can execute
// (every entry of availableKernels, which always ends with generic), with
// that tier forced active for the duration. This is how the whole engine
// suite covers the SSE2/AVX2/AVX-512/NEON kernels on one machine.
func forEachTier(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	for _, k := range availableKernels {
		tier := k.tier
		t.Run(tier, func(t *testing.T) {
			restore, err := forceKernel(tier)
			if err != nil {
				t.Fatal(err)
			}
			defer restore()
			fn(t)
		})
	}
}

// engineVariant runs one public GEMM entry point and the matching reference.
type engineVariant struct {
	name           string
	transA, transB bool
	acc            bool
	run            func(c, a, b *Tensor)
}

var engineVariants = []engineVariant{
	{"MatMul", false, false, false, MatMul},
	{"MatMulAdd", false, false, true, MatMulAdd},
	{"MatMulTransA", true, false, false, MatMulTransA},
	{"MatMulAddTransA", true, false, true, MatMulAddTransA},
	{"MatMulTransB", false, true, false, MatMulTransB},
	{"MatMulAdd2TransB", false, true, true, MatMulAdd2TransB},
}

// operands builds A, B and a pre-filled C for a logical m×n×k product.
func operands(g *RNG, m, n, k int, v engineVariant) (c, a, b *Tensor) {
	if v.transA {
		a = randMat(g, k, m)
	} else {
		a = randMat(g, m, k)
	}
	if v.transB {
		b = randMat(g, n, k)
	} else {
		b = randMat(g, k, n)
	}
	c = randMat(g, m, n) // non-zero so acc and overwrite are distinguishable
	return c, a, b
}

// TestPackedEngineMatchesRef drives every variant across randomized and
// degenerate shapes at pool widths 1..4, on every kernel tier, comparing
// against gemmRef. Shapes include 1×n, m×1, k = 0, sub-tile edges relative
// to the tier's own register tile, and one product big enough to cross the
// parallel fan-out threshold.
func TestPackedEngineMatchesRef(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		defer par.SetWidth(0)
		bl := KernelBlocking()
		mr, nr, kc := bl.MR, bl.NR, bl.KC
		shapes := [][3]int{
			{1, 1, 1}, {1, 9, 5}, {9, 1, 5}, {3, 3, 0}, {1, 1, 0},
			{mr, nr, 1}, {mr - 1, nr - 1, 3}, {mr + 1, nr + 1, 7},
			{2*mr + 3, 3*nr + 5, kc + 9}, {33, 17, 29}, {5, 300, 40},
			{150, 150, 100}, // crosses gemmParallelFlops
		}
		g := NewRNG(41)
		for i := 0; i < 10; i++ {
			shapes = append(shapes, [3]int{1 + g.Intn(40), 1 + g.Intn(40), g.Intn(80)})
		}
		for w := 1; w <= 4; w++ {
			par.SetWidth(w)
			gw := NewRNG(int64(100 + w))
			for _, s := range shapes {
				m, n, k := s[0], s[1], s[2]
				for _, v := range engineVariants {
					c, a, b := operands(gw, m, n, k, v)
					want := c.Clone()
					v.run(c, a, b)
					gemmRef(want, a, b, v.transA, v.transB, v.acc)
					tol := 1e-4 * math.Sqrt(float64(k)+1)
					if d := maxAbsDiff(c.Data, want.Data); d > tol {
						t.Errorf("width %d %s %dx%dx%d: diff %v > %v", w, v.name, m, n, k, d, tol)
					}
				}
			}
		}
	})
}

// TestPackedEngineBitDeterministic pins the engine's determinism contract on
// every tier: for a product large enough to fan out, the packed-parallel
// result is bit-identical to a forced-serial run and to every other pool
// width — partitioning only splits the M dimension, so per-element summation
// order never changes.
func TestPackedEngineBitDeterministic(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		defer func() {
			par.SetSerial(false)
			par.SetWidth(0)
		}()
		m, n, k := 160, 200, 80 // m*n*k = 2.56M ≥ gemmParallelFlops
		g := NewRNG(42)
		for _, v := range engineVariants {
			c0, a, b := operands(g, m, n, k, v)
			base := c0.Clone()

			par.SetWidth(4)
			par.SetSerial(true)
			serial := base.Clone()
			v.run(serial, a, b)
			par.SetSerial(false)

			parallel := base.Clone()
			v.run(parallel, a, b)
			for i := range serial.Data {
				if serial.Data[i] != parallel.Data[i] {
					t.Fatalf("%s: serial vs parallel differ at %d: %v vs %v", v.name, i, serial.Data[i], parallel.Data[i])
				}
			}

			for _, w := range []int{1, 2, 3} {
				par.SetWidth(w)
				cw := base.Clone()
				v.run(cw, a, b)
				for i := range serial.Data {
					if serial.Data[i] != cw.Data[i] {
						t.Fatalf("%s: width 4 vs width %d differ at %d", v.name, w, i)
					}
				}
			}
			par.SetWidth(4)
		}
	})
}

// TestMicroKernelMatchesRef checks every tier's fp32 micro-kernel lane by
// lane against a float64-accumulated reference on the tier's own (mr, nr)
// panels, including the kc = 0 degenerate tile. FMA tiers contract a
// rounding step per multiply-add, so the comparison is tolerance-based; the
// exact-equality contract for the unfused tiers is pinned separately by
// TestMicroKernelUnfusedBitExact.
func TestMicroKernelMatchesRef(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		bl := KernelBlocking()
		mr, nr := bl.MR, bl.NR
		g := NewRNG(43)
		for _, kc := range []int{0, 1, 2, 3, 7, 31, bl.KC} {
			ap := make([]float32, mr*kc)
			bp := make([]float32, nr*kc)
			g.FillNormal(ap, 0, 1)
			g.FillNormal(bp, 0, 1)
			var got kernTile
			got[mr*nr-1] = 371 // canary: kernel must overwrite, not accumulate
			active.kern(ap, bp, kc, &got)
			tol := 1e-5 * math.Sqrt(float64(kc)+1)
			for i := 0; i < mr; i++ {
				for j := 0; j < nr; j++ {
					var want float64
					for p := 0; p < kc; p++ {
						want += float64(ap[p*mr+i]) * float64(bp[p*nr+j])
					}
					if d := math.Abs(float64(got[i*nr+j]) - want); d > tol {
						t.Fatalf("kc=%d lane (%d,%d): got %v want %v (diff %v)", kc, i, j, got[i*nr+j], want, d)
					}
				}
			}
		}
	})
}

// TestMicroKernelUnfusedBitExact pins bit-equality of the unfused 4×8 tiers
// (SSE2 assembly where present, generic everywhere) against the portable Go
// reference: same unfused multiply-add, same k order, so every lane must
// match exactly. This is the contract that lets sse2 and generic be
// interchangeable without perturbing golden values.
func TestMicroKernelUnfusedBitExact(t *testing.T) {
	for _, tier := range []string{"sse2", "generic"} {
		restore, err := forceKernel(tier)
		if err != nil {
			continue // sse2 only exists on amd64
		}
		g := NewRNG(43)
		for _, kc := range []int{0, 1, 2, 3, 7, 31, KernelBlocking().KC} {
			ap := make([]float32, 4*kc)
			bp := make([]float32, 8*kc)
			g.FillNormal(ap, 0, 1)
			g.FillNormal(bp, 0, 1)
			var got, want kernTile
			active.kern(ap, bp, kc, &got)
			microKernelGo(ap, bp, kc, &want)
			for i := range got[:4*8] {
				if got[i] != want[i] {
					t.Fatalf("%s kc=%d lane %d: dispatch %v vs Go %v", tier, kc, i, got[i], want[i])
				}
			}
		}
		restore()
	}
}

func TestMatMulBiasRow(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		bl := KernelBlocking()
		g := NewRNG(44)
		for _, s := range [][3]int{{3, 5, 4}, {bl.MR + 1, bl.NR + 3, bl.KC + 2}, {2, 3, 0}} {
			m, n, k := s[0], s[1], s[2]
			a := randMat(g, m, k)
			b := randMat(g, k, n)
			bias := make([]float32, m)
			g.FillNormal(bias, 0, 1)
			got := randMat(g, m, n)
			MatMulBiasRow(got, a, b, bias)
			want := New(m, n)
			gemmRef(want, a, b, false, false, false)
			for i := 0; i < m; i++ {
				for j := 0; j < n; j++ {
					want.Data[i*n+j] += bias[i]
				}
			}
			if d := maxAbsDiff(got.Data, want.Data); d > 1e-3 {
				t.Errorf("MatMulBiasRow %v: diff %v", s, d)
			}
		}
	})
}

func TestMatMulTransBBiasCol(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		bl := KernelBlocking()
		g := NewRNG(45)
		for _, s := range [][3]int{{3, 5, 4}, {bl.MR + 2, bl.NR + 1, bl.KC + 5}, {2, 3, 0}} {
			m, n, k := s[0], s[1], s[2]
			a := randMat(g, m, k)
			b := randMat(g, n, k)
			bias := make([]float32, n)
			g.FillNormal(bias, 0, 1)
			got := randMat(g, m, n)
			MatMulTransBBiasCol(got, a, b, bias)
			want := New(m, n)
			gemmRef(want, a, b, false, true, false)
			for i := 0; i < m; i++ {
				for j := 0; j < n; j++ {
					want.Data[i*n+j] += bias[j]
				}
			}
			if d := maxAbsDiff(got.Data, want.Data); d > 1e-3 {
				t.Errorf("MatMulTransBBiasCol %v: diff %v", s, d)
			}
		}
	})
}

// TestGEMMZeroAllocs asserts the packed hot path is allocation-free in
// steady state (after the scratch arena has warmed up), for every variant
// and the pre-packed A entry points (a re-Pack reuses its panel buffer), on
// every tier, on conv-shaped operands.
func TestGEMMZeroAllocs(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		par.SetWidth(1)
		defer par.SetWidth(0)
		g := NewRNG(46)
		m, n, k := 20, 500, 576
		type op struct {
			name string
			run  func()
		}
		var ops []op
		for _, v := range engineVariants {
			c, a, b := operands(g, m, n, k, v)
			run := v.run
			ops = append(ops, op{v.name, func() { run(c, a, b) }})
		}
		{
			a := randMat(g, m, k)
			b := randMat(g, k, n)
			c := New(m, n)
			bias := make([]float32, m)
			ops = append(ops, op{"MatMulBiasRow", func() { MatMulBiasRow(c, a, b, bias) }})
		}
		{
			a := randMat(g, m, k)
			b := randMat(g, n, k)
			c := New(m, n)
			bias := make([]float32, n)
			ops = append(ops, op{"MatMulTransBBiasCol", func() { MatMulTransBBiasCol(c, a, b, bias) }})
		}
		for _, transA := range []bool{false, true} {
			a := randMat(g, m, k)
			if transA {
				a = randMat(g, k, m)
			}
			b := randMat(g, k, n)
			c := New(m, n)
			bias := make([]float32, m)
			var pa PackedA
			ops = append(ops,
				op{"PackedA.Pack", func() { pa.Pack(a, transA) }},
				op{"PackedA.MatMul", func() { pa.MatMul(c, b) }},
				op{"PackedA.MatMulBiasRow", func() { pa.MatMulBiasRow(c, b, bias) }},
			)
		}
		for _, o := range ops {
			o.run() // warm the arena
			if allocs := testing.AllocsPerRun(5, o.run); allocs != 0 {
				t.Errorf("%s: %v allocs/op in steady state, want 0", o.name, allocs)
			}
		}
	})
}

// TestMatVecMatchesRef checks the dispatched MatVec against a plain dot on
// every tier.
func TestMatVecMatchesRef(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		g := NewRNG(47)
		for _, s := range [][2]int{{1, 1}, {3, 5}, {7, 63}, {50, 129}} {
			m, n := s[0], s[1]
			a := randMat(g, m, n)
			x := make([]float32, n)
			g.FillNormal(x, 0, 1)
			y := make([]float32, m)
			MatVec(y, a, x)
			for i := 0; i < m; i++ {
				var want float32
				for j := 0; j < n; j++ {
					want += a.Data[i*n+j] * x[j]
				}
				if math.Abs(float64(y[i]-want)) > 1e-3 {
					t.Errorf("MatVec %v row %d: got %v want %v", s, i, y[i], want)
				}
			}
		}
	})
}
