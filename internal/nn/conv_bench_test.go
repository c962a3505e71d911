package nn

import (
	"testing"

	"scaledl/internal/par"
	"scaledl/internal/tensor"
)

// convCase is one zoo conv layer at the batch it trains with in the
// benchmark workloads (LeNet at 64, TinyCNN at 32, both on MNIST shapes).
type convCase struct {
	name         string
	def          NetDef
	layer, batch int
}

var mnistIn = Shape{C: 1, H: 28, W: 28}

var convCases = []convCase{
	{"lenet-0-conv-b64", LeNet(mnistIn, 10), 0, 64},
	{"lenet-2-conv-b64", LeNet(mnistIn, 10), 2, 64},
	// LeNet conv2 at batch 16: the geometry BENCH_gemm.json's Conv2D
	// reference figures were recorded on.
	{"lenet-2-conv-b16", LeNet(mnistIn, 10), 2, 16},
	{"tinycnn-0-conv-b32", TinyCNN(mnistIn, 10), 0, 32},
	{"tinycnn-3-conv-b32", TinyCNN(mnistIn, 10), 3, 32},
}

// zooConv builds the case's network and returns its conv layer with a
// random input batch. The layer keeps what Build configured (a first layer
// skips its input gradient), so it runs exactly as it does in training.
func zooConv(c convCase) (*Conv2D, []float32) {
	l := c.def.Build(31).Layers[c.layer].(*Conv2D)
	x := make([]float32, c.batch*l.in.Dim())
	tensor.NewRNG(32).FillNormal(x, 0, 1)
	return l, x
}

func BenchmarkConv2DForward(b *testing.B) {
	for _, c := range convCases {
		b.Run(c.name, func(b *testing.B) {
			l, x := zooConv(c)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Forward(x, c.batch, true)
			}
		})
	}
}

func BenchmarkConv2DBackward(b *testing.B) {
	for _, c := range convCases {
		b.Run(c.name, func(b *testing.B) {
			l, x := zooConv(c)
			out := l.Forward(x, c.batch, true)
			dy := make([]float32, len(out))
			tensor.NewRNG(33).FillNormal(dy, 0, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Backward(dy, c.batch)
			}
		})
	}
}

// TestConv2DZeroAllocs pins the warm conv pass allocation-free: once the
// layer's scratch (im2col columns, per-chunk partials, the packed weight
// panels) has grown, a Forward+Backward at batch 8 on the LeNet conv2
// geometry allocates nothing on a serial pool. Fanned out, it allocates
// exactly what its two bare par.For fan-outs do (the pool's goroutine
// hand-off), and nothing of its own.
func TestConv2DZeroAllocs(t *testing.T) {
	defer par.SetWidth(0)
	const batch = 8
	l, x := zooConv(convCase{"lenet-2-conv-b8", LeNet(mnistIn, 10), 2, batch})
	dy := make([]float32, batch*l.OutShape().Dim())
	tensor.NewRNG(34).FillNormal(dy, 0, 1)
	step := func() {
		l.Forward(x, batch, true)
		l.Backward(dy, batch)
	}
	noop := func(int) {}
	for _, w := range []int{1, 4} {
		par.SetWidth(w)
		chunks := len(par.ChunkRanges(batch))
		fanOut := testing.AllocsPerRun(10, func() {
			par.For(chunks, noop)
			par.For(chunks, noop)
		})
		step() // grow the layer's scratch for this chunk count
		if allocs := testing.AllocsPerRun(10, step); allocs != fanOut {
			t.Errorf("width %d: warm conv Forward+Backward allocates %v per pass, want %v (par.For's own)", w, allocs, fanOut)
		}
	}
}
