package tensor

// Operand packing for the blocked GEMM engine. Both packers read the logical
// operand through (rowStride, colStride) pairs, so a transposed view costs
// nothing extra: MatMulTransA passes (1, m) instead of (k, 1) and the
// transposition is absorbed while the panel is being laid out — the
// micro-kernel only ever sees the one canonical panel format. Ragged edges
// are zero-padded up to the tier's MR/NR so the micro-kernel always runs a
// full register tile; the padding lanes contribute exact zeros and are
// simply not stored back.
//
// The two layout-transposing loops (packA from a row-major source, packB
// from a transposed one) would otherwise write one float per k step at
// stride mr/nr; they move a transposeStrip-wide strip of source rows or
// columns per sweep instead, like Transpose, so each k step retires that
// many contiguous writes.
//
// The panel geometry (mr, nr) is a parameter — each kernel tier packs for
// its own register tile — and each packer has a uint16 twin that encodes
// elements to bf16 or IEEE half on the way in (lowprec.go), halving the
// pack-buffer footprint for the low-precision compute path.

// packA packs the mc×kc block of the logical m×k matrix A starting at
// (i0, p0) into mr-row panels: dst[t*mr*kc + p*mr + i] holds logical
// A[i0+t*mr+i][p0+p]. Element (i, p) of the logical matrix lives at
// a[i*rs + p*cs]. Rows past mc are zero-filled.
func packA(dst, a []float32, rs, cs, i0, p0, mc, kc, mr int) {
	const strip = transposeStrip
	for t := 0; t*mr < mc; t++ {
		panel := dst[t*mr*kc:][: mr*kc : mr*kc]
		rows := mc - t*mr
		if rows > mr {
			rows = mr
		}
		base := (i0+t*mr)*rs + p0*cs
		if cs == 1 {
			// Row-major source: each logical row is contiguous in p; move
			// a strip of rows per sweep.
			i := 0
			for ; i+strip <= rows; i += strip {
				r0 := a[base+i*rs:][:kc]
				r1 := a[base+(i+1)*rs:][:kc]
				r2 := a[base+(i+2)*rs:][:kc]
				r3 := a[base+(i+3)*rs:][:kc]
				d := i
				for p := range r0 {
					q := panel[d : d+strip : d+strip]
					q[0], q[1], q[2], q[3] = r0[p], r1[p], r2[p], r3[p]
					d += mr
				}
			}
			for ; i < rows; i++ {
				src := a[base+i*rs:][:kc]
				for p, v := range src {
					panel[p*mr+i] = v
				}
			}
		} else {
			// Transposed source (rs == 1): each k column is contiguous in i.
			for p := 0; p < kc; p++ {
				src := a[base+p*cs:][:rows]
				for i, v := range src {
					panel[p*mr+i] = v
				}
			}
		}
		for i := rows; i < mr; i++ {
			for p := 0; p < kc; p++ {
				panel[p*mr+i] = 0
			}
		}
	}
}

// packB packs the kc×nc block of the logical k×n matrix B starting at
// (p0, j0) into nr-column panels: dst[u*nr*kc + p*nr + j] holds logical
// B[p0+p][j0+u*nr+j]. Element (p, j) lives at b[p*rs + j*cs]. Columns past
// nc are zero-filled.
func packB(dst, b []float32, rs, cs, p0, j0, nc, kc, nr int) {
	const strip = transposeStrip
	for u := 0; u*nr < nc; u++ {
		panel := dst[u*nr*kc:][: nr*kc : nr*kc]
		cols := nc - u*nr
		if cols > nr {
			cols = nr
		}
		base := p0*rs + (j0+u*nr)*cs
		if cs == 1 {
			// Row-major source: nr consecutive columns per k step.
			if cols == nr {
				for p := 0; p < kc; p++ {
					copy(panel[p*nr:p*nr+nr], b[base+p*rs:][:nr])
				}
			} else {
				for p := 0; p < kc; p++ {
					row := panel[p*nr : p*nr+nr]
					n := copy(row, b[base+p*rs:][:cols])
					for j := n; j < nr; j++ {
						row[j] = 0
					}
				}
			}
		} else {
			// Transposed source (rs == 1): each column is contiguous in p.
			// Move a strip of columns per sweep, as packA does with rows.
			j := 0
			for ; j+strip <= cols; j += strip {
				c0 := b[base+j*cs:][:kc]
				c1 := b[base+(j+1)*cs:][:kc]
				c2 := b[base+(j+2)*cs:][:kc]
				c3 := b[base+(j+3)*cs:][:kc]
				d := j
				for p := range c0 {
					q := panel[d : d+strip : d+strip]
					q[0], q[1], q[2], q[3] = c0[p], c1[p], c2[p], c3[p]
					d += nr
				}
			}
			for ; j < cols; j++ {
				src := b[base+j*cs:][:kc]
				for p, v := range src {
					panel[p*nr+j] = v
				}
			}
			for j := cols; j < nr; j++ {
				for p := 0; p < kc; p++ {
					panel[p*nr+j] = 0
				}
			}
		}
	}
}

// packA16 is packA with on-the-fly narrowing: each element is encoded (bf16
// or IEEE half via enc) as it is laid into the panel. Zero padding encodes
// to bit pattern 0 in both formats, so the pad lanes stay exact zeros.
func packA16(dst []uint16, a []float32, rs, cs, i0, p0, mc, kc, mr int, enc func(float32) uint16) {
	const strip = transposeStrip
	for t := 0; t*mr < mc; t++ {
		panel := dst[t*mr*kc:][: mr*kc : mr*kc]
		rows := mc - t*mr
		if rows > mr {
			rows = mr
		}
		base := (i0+t*mr)*rs + p0*cs
		if cs == 1 {
			i := 0
			for ; i+strip <= rows; i += strip {
				r0 := a[base+i*rs:][:kc]
				r1 := a[base+(i+1)*rs:][:kc]
				r2 := a[base+(i+2)*rs:][:kc]
				r3 := a[base+(i+3)*rs:][:kc]
				d := i
				for p := range r0 {
					q := panel[d : d+strip : d+strip]
					q[0], q[1], q[2], q[3] = enc(r0[p]), enc(r1[p]), enc(r2[p]), enc(r3[p])
					d += mr
				}
			}
			for ; i < rows; i++ {
				src := a[base+i*rs:][:kc]
				for p, v := range src {
					panel[p*mr+i] = enc(v)
				}
			}
		} else {
			for p := 0; p < kc; p++ {
				src := a[base+p*cs:][:rows]
				for i, v := range src {
					panel[p*mr+i] = enc(v)
				}
			}
		}
		for i := rows; i < mr; i++ {
			for p := 0; p < kc; p++ {
				panel[p*mr+i] = 0
			}
		}
	}
}

// packB16 is packB with on-the-fly narrowing via enc.
func packB16(dst []uint16, b []float32, rs, cs, p0, j0, nc, kc, nr int, enc func(float32) uint16) {
	const strip = transposeStrip
	for u := 0; u*nr < nc; u++ {
		panel := dst[u*nr*kc:][: nr*kc : nr*kc]
		cols := nc - u*nr
		if cols > nr {
			cols = nr
		}
		base := p0*rs + (j0+u*nr)*cs
		if cs == 1 {
			for p := 0; p < kc; p++ {
				row := panel[p*nr : p*nr+nr]
				src := b[base+p*rs:][:cols]
				for j, v := range src {
					row[j] = enc(v)
				}
				for j := cols; j < nr; j++ {
					row[j] = 0
				}
			}
		} else {
			j := 0
			for ; j+strip <= cols; j += strip {
				c0 := b[base+j*cs:][:kc]
				c1 := b[base+(j+1)*cs:][:kc]
				c2 := b[base+(j+2)*cs:][:kc]
				c3 := b[base+(j+3)*cs:][:kc]
				d := j
				for p := range c0 {
					q := panel[d : d+strip : d+strip]
					q[0], q[1], q[2], q[3] = enc(c0[p]), enc(c1[p]), enc(c2[p]), enc(c3[p])
					d += nr
				}
			}
			for ; j < cols; j++ {
				src := b[base+j*cs:][:kc]
				for p, v := range src {
					panel[p*nr+j] = enc(v)
				}
			}
			for j := cols; j < nr; j++ {
				for p := 0; p < kc; p++ {
					panel[p*nr+j] = 0
				}
			}
		}
	}
}
