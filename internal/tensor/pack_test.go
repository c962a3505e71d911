package tensor

import (
	"math"
	"testing"

	"scaledl/internal/par"
)

// packARef and packBRef are the plain scalar packers the strip-unrolled ones
// are checked against: one element per step, straight from the layout
// definitions in pack.go, with zero padding past the valid rows/columns.
func packARef[E panelElem](dst []E, a []float32, rs, cs, i0, p0, mc, kc, mr int, enc func(float32) E) {
	for t := 0; t*mr < mc; t++ {
		for p := 0; p < kc; p++ {
			for i := 0; i < mr; i++ {
				var v E
				if t*mr+i < mc {
					v = enc(a[(i0+t*mr+i)*rs+(p0+p)*cs])
				}
				dst[t*mr*kc+p*mr+i] = v
			}
		}
	}
}

func packBRef[E panelElem](dst []E, b []float32, rs, cs, p0, j0, nc, kc, nr int, enc func(float32) E) {
	for u := 0; u*nr < nc; u++ {
		for p := 0; p < kc; p++ {
			for j := 0; j < nr; j++ {
				var v E
				if u*nr+j < nc {
					v = enc(b[(p0+p)*rs+(j0+u*nr+j)*cs])
				}
				dst[u*nr*kc+p*nr+j] = v
			}
		}
	}
}

// elemBits is an element's bit pattern, so NaN sentinels compare exactly.
func elemBits[E panelElem](v E) uint32 {
	switch x := any(v).(type) {
	case float32:
		return math.Float32bits(x)
	case uint16:
		return uint32(x)
	}
	panic("unreachable")
}

// packerFn is either packer's signature with the encoder bound: o0 and o1
// are the block origin, cnt the packed extent along the tiled dimension.
type packerFn[E panelElem] func(dst []E, src []float32, rs, cs, o0, o1, cnt, kc, r int)

// checkPacker compares pack with ref for every tile size r a tier uses,
// every extent from 0 to 2r (so one full tile plus every ragged remainder,
// padding lanes included), row-major and transposed sources, and a block
// origin away from (0, 0). The destination starts as a sentinel so a lane
// the packer forgets to write (a pad lane included) shows up.
func checkPacker[E panelElem](t *testing.T, name string, isA bool, pack, ref packerFn[E], sentinel E) {
	t.Helper()
	g := NewRNG(71)
	const kc, off0, off1 = 7, 2, 3
	for _, r := range []int{4, 8, 14, 16} {
		for cnt := 0; cnt <= 2*r; cnt++ {
			for _, trans := range []bool{false, true} {
				// The logical source is rows×cols with the tiled dimension
				// (m for A, n for B) sized to hold the block plus a margin.
				rows, cols := off0+cnt+1, off1+kc+1
				if !isA {
					rows, cols = off0+kc+1, off1+cnt+1
				}
				src := make([]float32, rows*cols)
				g.FillNormal(src, 0, 1)
				rs, cs := cols, 1
				if trans {
					rs, cs = 1, rows
				}
				tiles := (cnt + r - 1) / r
				got := make([]E, tiles*r*kc+1)
				want := make([]E, len(got))
				for i := range got {
					got[i], want[i] = sentinel, sentinel
				}
				pack(got, src, rs, cs, off0, off1, cnt, kc, r)
				ref(want, src, rs, cs, off0, off1, cnt, kc, r)
				for i := range got {
					if elemBits(got[i]) != elemBits(want[i]) {
						t.Fatalf("%s r=%d cnt=%d trans=%v: lane %d = %#x, want %#x", name, r, cnt, trans, i, elemBits(got[i]), elemBits(want[i]))
					}
				}
			}
		}
	}
}

// TestPackersMatchReference pins packA/packB and their 16-bit twins,
// including the strip-unrolled transposing sweeps and their scalar tails,
// element for element against the scalar reference packers.
func TestPackersMatchReference(t *testing.T) {
	ident := func(v float32) float32 { return v }
	nan := float32(math.NaN())
	checkPacker(t, "packA", true, packA, func(dst []float32, a []float32, rs, cs, i0, p0, mc, kc, mr int) {
		packARef(dst, a, rs, cs, i0, p0, mc, kc, mr, ident)
	}, nan)
	checkPacker(t, "packB", false, packB, func(dst []float32, b []float32, rs, cs, p0, j0, nc, kc, nr int) {
		packBRef(dst, b, rs, cs, p0, j0, nc, kc, nr, ident)
	}, nan)
	for _, enc := range []struct {
		name string
		f    func(float32) uint16
	}{{"bf16", f32ToBF16}, {"fp16", f32ToFP16}} {
		f := enc.f
		checkPacker(t, "packA16/"+enc.name, true, func(dst []uint16, a []float32, rs, cs, i0, p0, mc, kc, mr int) {
			packA16(dst, a, rs, cs, i0, p0, mc, kc, mr, f)
		}, func(dst []uint16, a []float32, rs, cs, i0, p0, mc, kc, mr int) {
			packARef(dst, a, rs, cs, i0, p0, mc, kc, mr, f)
		}, 0xffff)
		checkPacker(t, "packB16/"+enc.name, false, func(dst []uint16, b []float32, rs, cs, p0, j0, nc, kc, nr int) {
			packB16(dst, b, rs, cs, p0, j0, nc, kc, nr, f)
		}, func(dst []uint16, b []float32, rs, cs, p0, j0, nc, kc, nr int) {
			packBRef(dst, b, rs, cs, p0, j0, nc, kc, nr, f)
		}, 0xffff)
	}
}

// sameBits reports the first index where two float32 slices differ bitwise,
// or -1.
func sameBits(a, b []float32) int {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestPackedAMatchesUnpacked pins the pre-packed A path to the per-product
// packing path bit for bit, on every tier and compute precision: shapes
// with m off the MR grid, m past MC, k past KC and off the KC grid, either
// A orientation, the plain, bias-row and accumulating epilogues, and pool
// widths 1 and 4 (the m > MC product fans out, so concurrent chunks share
// the panels). It also proves the panels are what the engine reads (the
// pack is a snapshot of the source), and that a pack made under another
// precision or tier falls back to packing the source, with identical bits.
func TestPackedAMatchesUnpacked(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		defer par.SetWidth(0)
		bl := KernelBlocking()
		shapes := [][3]int{ // m, n, k
			{bl.MR - 1, 9, 7},
			{2*bl.MR + 3, bl.NR + 5, bl.KC + 9},
			{bl.MC + bl.MR + 1, 24, 2*bl.KC + 3},
			{5, 3, 0},
		}
		g := NewRNG(61)
		for _, prec := range []Precision{Float32, BFloat16, Float16} {
			prev := SetComputePrecision(prec)
			for _, w := range []int{1, 4} {
				par.SetWidth(w)
				for _, s := range shapes {
					m, n, k := s[0], s[1], s[2]
					for _, transA := range []bool{false, true} {
						a := randMat(g, m, k)
						if transA {
							a = randMat(g, k, m)
						}
						b := randMat(g, k, n)
						bias := make([]float32, m)
						g.FillNormal(bias, 0, 1)
						c0 := randMat(g, m, n)
						var pa PackedA
						pa.Pack(a, transA)
						if !pa.matches(active, prec) {
							t.Fatalf("%v: fresh pack does not match the running engine", prec)
						}
						for _, mode := range []string{"plain", "biasRow", "acc"} {
							got, want := c0.Clone(), c0.Clone()
							op := pa.op(got, b)
							switch mode {
							case "biasRow":
								op.biasRow = bias
							case "acc":
								op.acc = true
							}
							gemmRun(op)
							op.c, op.pa = want.Data, nil
							gemmRun(op)
							if i := sameBits(got.Data, want.Data); i >= 0 {
								t.Fatalf("%v width %d %dx%dx%d transA=%v %s: packed %v vs unpacked %v at %d",
									prec, w, m, n, k, transA, mode, got.Data[i], want.Data[i], i)
							}
						}
						// The exported entry points agree with their
						// package-level twins.
						got, want := c0.Clone(), c0.Clone()
						pa.MatMul(got, b)
						if transA {
							MatMulTransA(want, a, b)
						} else {
							MatMul(want, a, b)
						}
						if i := sameBits(got.Data, want.Data); i >= 0 {
							t.Fatalf("%v %dx%dx%d transA=%v: PackedA.MatMul differs at %d", prec, m, n, k, transA, i)
						}
						if !transA {
							pa.MatMulBiasRow(got, b, bias)
							MatMulBiasRow(want, a, b, bias)
							if i := sameBits(got.Data, want.Data); i >= 0 {
								t.Fatalf("%v %dx%dx%d: PackedA.MatMulBiasRow differs at %d", prec, m, n, k, i)
							}
						}
					}
				}
			}
			SetComputePrecision(prev)
		}

		// Snapshot: changing the source after Pack leaves the packed product
		// on the old values, which only holds if the engine read the panels.
		m, n, k := 2*bl.MR+1, 11, bl.KC+5
		a := randMat(g, m, k)
		b := randMat(g, k, n)
		orig := a.Clone()
		var pa PackedA
		pa.Pack(a, false)
		g.FillNormal(a.Data, 0, 1)
		got, want := New(m, n), New(m, n)
		pa.MatMul(got, b)
		MatMul(want, orig, b)
		if i := sameBits(got.Data, want.Data); i >= 0 {
			t.Fatalf("packed product does not read the packed snapshot (differs at %d)", i)
		}

		// Stale packs: packed under one precision (or tier) and run under
		// another, the product packs the current source itself.
		stale := []struct{ packed, run Precision }{
			{Float32, BFloat16}, {BFloat16, Float16}, {Float16, Float32},
		}
		for _, st := range stale {
			prev := SetComputePrecision(st.packed)
			pa.Pack(a, false)
			SetComputePrecision(st.run)
			got, want := New(m, n), New(m, n)
			pa.MatMul(got, b)
			MatMul(want, a, b)
			SetComputePrecision(prev)
			if i := sameBits(got.Data, want.Data); i >= 0 {
				t.Fatalf("packed under %v, run under %v: differs from the unpacked product at %d", st.packed, st.run, i)
			}
		}
		pa.Pack(a, false)
		restore, err := forceKernel("generic") // a fresh tier instance, so never the packing one
		if err != nil {
			t.Fatal(err)
		}
		got, want = New(m, n), New(m, n)
		pa.MatMul(got, b)
		MatMul(want, a, b)
		restore()
		if i := sameBits(got.Data, want.Data); i >= 0 {
			t.Fatalf("packed under another tier: differs from the unpacked product at %d", i)
		}
	})
}
