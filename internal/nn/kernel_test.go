package nn

import (
	"math"
	"testing"

	"scaledl/internal/tensor"
)

// poolInputs returns the inputs the 2×2 max-pool path is checked on, each n
// long: random normals, then adversarial draws from a pool of ties, signed
// zeros, infinities and NaNs (so windows hold all-equal taps, ±0 pairs and
// NaN in the first or a later tap), then all-equal planes.
func poolInputs(n int, g *tensor.RNG) [][]float32 {
	nan := float32(math.NaN())
	negZero := math.Float32frombits(1 << 31)
	special := []float32{1, 1, -1, 0, negZero, float32(math.Inf(1)), float32(math.Inf(-1)), nan, 2}
	random := make([]float32, n)
	g.FillNormal(random, 0, 1)
	adversarial := make([]float32, n)
	for i := range adversarial {
		adversarial[i] = special[g.Intn(len(special))]
	}
	inputs := [][]float32{random, adversarial}
	for _, v := range []float32{3, negZero, nan} {
		flat := make([]float32, n)
		for i := range flat {
			flat[i] = v
		}
		inputs = append(inputs, flat)
	}
	return inputs
}

// The dedicated 2×2/stride-2 max-pool loop must reproduce the generic loop
// bit for bit, argmax included, on every geometry it serves: odd H/W (the
// trailing row or column is dropped), b>1, C>1, train on and off.
func TestMaxPool2x2MatchesGenericLoop(t *testing.T) {
	g := tensor.NewRNG(5)
	for _, tc := range []struct {
		in Shape
		b  int
	}{
		{Shape{C: 1, H: 4, W: 4}, 1},
		{Shape{C: 3, H: 7, W: 9}, 2},
		{Shape{C: 2, H: 5, W: 2}, 3},
		{Shape{C: 1, H: 2, W: 3}, 4},
		{Shape{C: 20, H: 24, W: 24}, 2},
	} {
		l := NewPool2D(tc.in, MaxPool, 2, 2)
		outDim := l.out.Dim()
		for k, x := range poolInputs(tc.b*tc.in.Dim(), g) {
			for _, train := range []bool{true, false} {
				// Seed the argmax buffer with a sentinel so an inference pass
				// that writes it shows up.
				l.Forward(x, tc.b, true)
				for i := range l.argmax {
					l.argmax[i] = -7
				}
				fast := append([]float32(nil), l.Forward(x, tc.b, train)...)
				fastArg := append([]int32(nil), l.argmax...)
				for i := range l.argmax {
					l.argmax[i] = -7
				}
				generic := make([]float32, tc.b*outDim)
				l.forwardGeneric(x, generic, tc.b, train)
				for i := range generic {
					if math.Float32bits(fast[i]) != math.Float32bits(generic[i]) {
						t.Fatalf("%v b=%d input %d train=%v: out[%d] = %v, generic %v",
							tc.in, tc.b, k, train, i, fast[i], generic[i])
					}
					if fastArg[i] != l.argmax[i] {
						t.Fatalf("%v b=%d input %d train=%v: argmax[%d] = %d, generic %d",
							tc.in, tc.b, k, train, i, fastArg[i], l.argmax[i])
					}
				}
			}
		}
	}
}

// ReLU's mask select must give the bits of the branchy reference on every
// special value: NaN of either sign, ±0, ±Inf and subnormals all map to +0
// unless strictly positive, and backward passes dy's bits through exactly
// where the output is positive.
func TestReLUSpecialValues(t *testing.T) {
	specials := []float32{
		float32(math.NaN()),
		math.Float32frombits(0xffc00001), // negative NaN with a payload
		0,
		math.Float32frombits(1 << 31), // -0
		float32(math.Inf(1)),
		float32(math.Inf(-1)),
		math.Float32frombits(1),                // smallest subnormal
		math.Float32frombits(1<<31 | 1),        // its negative
		math.Float32frombits(0x007fffff),       // largest subnormal
		math.Float32frombits(1<<31 | 0x7fffff), // its negative
		1, -1, math.MaxFloat32, -math.MaxFloat32,
	}
	ref := func(v, pass float32) uint32 {
		if v > 0 {
			return math.Float32bits(pass)
		}
		return 0
	}
	n := len(specials)
	x := make([]float32, n*n)
	dy := make([]float32, n*n)
	for i := range specials {
		for j := range specials {
			x[i*n+j], dy[i*n+j] = specials[i], specials[j]
		}
	}
	l := NewReLU(Shape{C: 1, H: n, W: n})
	out := l.Forward(x, 1, true)
	for i, v := range x {
		if got, want := math.Float32bits(out[i]), ref(v, v); got != want {
			t.Fatalf("forward(%v) bits %#08x, want %#08x", v, got, want)
		}
	}
	dx := l.Backward(dy, 1)
	for i := range dy {
		if got, want := math.Float32bits(dx[i]), ref(out[i], dy[i]); got != want {
			t.Fatalf("backward(y=%v, dy=%v) bits %#08x, want %#08x", out[i], dy[i], got, want)
		}
	}
}

// A network's first convolution computes no input gradient: its Backward
// returns nil, the parameter gradients are bit-identical to the same net
// with elision switched off, and a warm training step allocates no more
// than without elision.
func TestFirstLayerInputGradElided(t *testing.T) {
	const b = 8
	for _, def := range []NetDef{
		LeNet(Shape{C: 1, H: 28, W: 28}, 10),
		TinyCNN(Shape{C: 1, H: 28, W: 28}, 10),
	} {
		x, labels := streamBatch(def, b, 3)
		elided, full := def.Build(1), def.Build(1)
		conv, ok := elided.Layers[0].(*Conv2D)
		if !ok || !conv.noInputGrad {
			t.Fatalf("%s: layer 0 not built with its input gradient elided", def.Name)
		}
		full.Layers[0].(*Conv2D).noInputGrad = false

		step := func(n *Net) func() {
			return func() {
				n.ZeroGrad()
				n.LossAndGrad(x, labels, b)
				n.SGDStep(0.01)
			}
		}
		for i := 0; i < 3; i++ {
			step(elided)()
			step(full)()
		}
		for i := range full.Grads {
			if math.Float32bits(elided.Grads[i]) != math.Float32bits(full.Grads[i]) {
				t.Fatalf("%s: grad[%d] = %v elided, %v full", def.Name, i, elided.Grads[i], full.Grads[i])
			}
		}

		dy := make([]float32, b*conv.OutShape().Dim())
		elided.Forward(x, b, true)
		if dx := conv.Backward(dy, b); dx != nil {
			t.Fatalf("%s: elided layer 0 Backward returned %d values, want nil", def.Name, len(dx))
		}
		full.Forward(x, b, true)
		if dx := full.Layers[0].Backward(dy, b); len(dx) != b*def.In.Dim() {
			t.Fatalf("%s: full layer 0 Backward returned %d values, want %d", def.Name, len(dx), b*def.In.Dim())
		}

		elidedAllocs := testing.AllocsPerRun(10, step(elided))
		fullAllocs := testing.AllocsPerRun(10, step(full))
		t.Logf("%s: warm step at batch %d allocates %v (%v without elision)", def.Name, b, elidedAllocs, fullAllocs)
		if elidedAllocs > fullAllocs {
			t.Fatalf("%s: warm step allocates %v with elision, %v without", def.Name, elidedAllocs, fullAllocs)
		}
	}
}
