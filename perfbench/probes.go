package main

import (
	"fmt"
	"io"

	"scaledl"
	"scaledl/internal/data"
	"scaledl/internal/nn"
	"scaledl/internal/tensor"
)

// netProbe times the layers of one workload's net at that workload's batch
// by calling their public functions directly: Sampler.Next, every
// Layer.Forward and Layer.Backward, the whole ZeroGrad+LossAndGrad+SGDStep
// step, and the tensor kernels each conv and dense layer's forward and
// backward run (Im2col, the forward GEMM, Col2im).
type netProbe struct {
	def   scaledl.NetDef
	batch int
	// denseBatches are extra batch sizes for the dense layers' GEMM (the
	// serving path runs LeNet's fc layers at batch 1 and 32).
	denseBatches []int
}

// layerTag names layer i of def in metric names: "<index>-<kind>".
func layerTag(def nn.NetDef, i int) string { return fmt.Sprintf("%d-%s", i, def.Specs[i].Kind) }

// run records the probe's spans: one untimed warm repetition, then reps
// traced ones.
func (p netProbe) run(tr *tracer, seed int64, reps int) {
	def, b := p.def, p.batch
	name := def.Name
	images, _ := scaledl.SyntheticMNIST(seed, 4*b, 1)
	sampler := data.NewSampler(images, seed)
	net := def.Build(seed)
	var batch *data.Batch
	var loss nn.SoftmaxXent
	inputs := make([][]float32, len(net.Layers))

	// Per conv layer: im2col columns for the whole batch and a col2im
	// destination.
	shapes := make([]nn.Shape, len(net.Layers))
	cols := make([][]float32, len(net.Layers))
	dx := make([][]float32, len(net.Layers))
	in := def.In
	for i, l := range net.Layers {
		shapes[i] = in
		if def.Specs[i].Kind == "conv" {
			out := l.OutShape()
			k := def.Specs[i].Kernel
			cols[i] = make([]float32, b*in.C*k*k*out.H*out.W)
			dx[i] = make([]float32, b*in.Dim())
		}
		in = l.OutShape()
	}

	for rep := 0; rep <= reps; rep++ {
		t := tr
		if rep == 0 {
			t = nil // warm-up: buffers grow, caches fill
		}
		op := t.newOp()
		root := t.begin("probe."+name, -1, op)

		id := t.begin("data.sample."+name, root, op)
		batch = sampler.Next(b, batch)
		t.end(id)

		layers := t.begin("nn."+name+".layers", root, op)
		net.ZeroGrad()
		cur := batch.X
		for i, l := range net.Layers {
			inputs[i] = cur
			id := t.begin("nn."+name+"."+layerTag(def, i)+".fwd", layers, op)
			cur = l.Forward(cur, b, true)
			t.end(id)
		}
		loss.Forward(cur, batch.Labels, def.Classes)
		dy := loss.Grad()
		for i := len(net.Layers) - 1; i >= 0; i-- {
			id := t.begin("nn."+name+"."+layerTag(def, i)+".bwd", layers, op)
			dy = net.Layers[i].Backward(dy, b)
			t.end(id)
		}
		t.end(layers)

		id = t.begin("nn."+name+".step", root, op)
		net.ZeroGrad()
		net.LossAndGrad(batch.X, batch.Labels, b)
		net.SGDStep(0.01)
		t.end(id)

		for i := range net.Layers {
			switch def.Specs[i].Kind {
			case "conv":
				p.conv(t, root, op, net, i, shapes[i], inputs[i], cols[i], dx[i])
			case "dense":
				for _, bb := range append([]int{b}, p.denseBatches...) {
					p.dense(t, root, op, net, i, shapes[i], inputs[i], bb)
				}
			}
		}
		t.end(root)
	}
}

// conv times layer i's per-sample Im2col, the batch's forward GEMMs and
// the per-sample Col2im.
func (p netProbe) conv(t *tracer, parent int, op int64, net *nn.Net, i int, in nn.Shape, x, cols, dx []float32) {
	spec, tag := p.def.Specs[i], p.def.Name+"."+layerTag(p.def, i)
	out := net.Layers[i].OutShape()
	k, b := spec.Kernel, p.batch
	kcc, spatial := in.C*k*k, out.H*out.W
	cs, inDim := kcc*spatial, in.Dim()
	for j := 0; j < b; j++ {
		id := t.begin("tensor.im2col."+tag, parent, op)
		tensor.Im2col(cols[j*cs:(j+1)*cs], x[j*inDim:(j+1)*inDim], in.C, in.H, in.W, k, k, spec.Stride, spec.Pad)
		t.end(id)
	}
	params := net.Params[net.Offsets[i]:net.Offsets[i+1]]
	w := tensor.Wrap(params[:out.C*kcc], out.C, kcc)
	bias := params[out.C*kcc:]
	res := tensor.New(out.C, spatial)
	colViews := make([]*tensor.Tensor, b)
	for j := range colViews {
		colViews[j] = tensor.Wrap(cols[j*cs:(j+1)*cs], kcc, spatial)
	}
	id := t.begin(fmt.Sprintf("tensor.matmul.%s.b%d.%s", p.def.Name, b, layerTag(p.def, i)), parent, op)
	for j := 0; j < b; j++ {
		tensor.MatMulBiasRow(res, w, colViews[j], bias)
	}
	t.end(id)
	for j := 0; j < b; j++ {
		id := t.begin("tensor.col2im."+tag, parent, op)
		tensor.Col2im(dx[j*inDim:(j+1)*inDim], cols[j*cs:(j+1)*cs], in.C, in.H, in.W, k, k, spec.Stride, spec.Pad)
		t.end(id)
	}
}

// dense times layer i's forward GEMM at batch bb.
func (p netProbe) dense(t *tracer, parent int, op int64, net *nn.Net, i int, in nn.Shape, x []float32, bb int) {
	units, d := p.def.Specs[i].Units, in.Dim()
	params := net.Params[net.Offsets[i]:net.Offsets[i+1]]
	w := tensor.Wrap(params[:units*d], units, d)
	xm := tensor.Wrap(x[:bb*d], bb, d)
	res := tensor.New(bb, units)
	id := t.begin(fmt.Sprintf("tensor.matmul.%s.b%d.%s", p.def.Name, bb, layerTag(p.def, i)), parent, op)
	tensor.MatMulTransBBiasCol(res, xm, w, params[units*d:])
	t.end(id)
}

// metrics derives the probe's per-layer metrics from the recorded spans.
func (p netProbe) metrics(tr *tracer, m map[string]metric) {
	def, name := p.def, p.def.Name
	net := def.Build(0)
	var fwd, bwd float64
	in := def.In
	for i, l := range net.Layers {
		tag := layerTag(def, i)
		f, b := tr.median("nn."+name+"."+tag+".fwd"), tr.median("nn."+name+"."+tag+".bwd")
		fwd, bwd = fwd+f, bwd+b
		m["nn."+name+"."+tag+".fwd_ms"] = metric{f, "ms"}
		m["nn."+name+"."+tag+".bwd_ms"] = metric{b, "ms"}
		out := l.OutShape()
		switch def.Specs[i].Kind {
		case "conv":
			k := def.Specs[i].Kernel
			flops := 2 * float64(out.C*in.C*k*k*out.H*out.W*p.batch)
			m[fmt.Sprintf("tensor.matmul.%s.b%d.%s.gflops", name, p.batch, tag)] = gflops(flops, tr.median(fmt.Sprintf("tensor.matmul.%s.b%d.%s", name, p.batch, tag)))
			m["tensor.im2col."+name+"."+tag+".us"] = metric{tr.median("tensor.im2col."+name+"."+tag) * 1e3, "us"}
			m["tensor.col2im."+name+"."+tag+".us"] = metric{tr.median("tensor.col2im."+name+"."+tag) * 1e3, "us"}
		case "dense":
			for _, bb := range append([]int{p.batch}, p.denseBatches...) {
				flops := 2 * float64(bb*in.Dim()*out.C)
				m[fmt.Sprintf("tensor.matmul.%s.b%d.%s.gflops", name, bb, tag)] = gflops(flops, tr.median(fmt.Sprintf("tensor.matmul.%s.b%d.%s", name, bb, tag)))
			}
		}
		in = out
	}
	m["nn."+name+".step_ms"] = metric{tr.median("nn." + name + ".step"), "ms"}
	m["nn."+name+".bwd_fwd_ratio"] = metric{bwd / fwd, "ratio"}
	m["data.sample."+name+".us"] = metric{tr.median("data.sample."+name) * 1e3, "us"}
}

func gflops(flops, ms float64) metric { return metric{flops / (ms * 1e6), "GFLOP/s"} }

// printCostGap prints, per layer, the measured share of fwd+bwd time
// against the FLOP share the simulator charges, and the measured bwd/fwd
// ratio against the simulator's fixed 2.0.
func (p netProbe) printCostGap(out io.Writer, tr *tracer) {
	def, name := p.def, p.def.Name
	net := def.Build(0)
	var total float64
	var totalFLOPs int64
	for i, l := range net.Layers {
		tag := layerTag(def, i)
		total += tr.median("nn."+name+"."+tag+".fwd") + tr.median("nn."+name+"."+tag+".bwd")
		totalFLOPs += l.FwdFLOPsPerSample()
	}
	fmt.Fprintf(out, "cost-model gap, %s at batch %d (the simulator splits step time by FLOPs and charges bwd = 2.0 x fwd):\n", name, p.batch)
	fmt.Fprintf(out, "  %-12s %10s %10s %12s %12s %10s\n", "layer", "fwd ms", "bwd ms", "time share", "FLOP share", "bwd/fwd")
	var fwd, bwd float64
	for i, l := range net.Layers {
		tag := layerTag(def, i)
		f, b := tr.median("nn."+name+"."+tag+".fwd"), tr.median("nn."+name+"."+tag+".bwd")
		fwd, bwd = fwd+f, bwd+b
		fmt.Fprintf(out, "  %-12s %10.3f %10.3f %11.1f%% %11.1f%% %10.2f\n", tag, f, b,
			100*(f+b)/total, 100*float64(l.FwdFLOPsPerSample())/float64(totalFLOPs), b/f)
	}
	fmt.Fprintf(out, "  whole net: measured bwd/fwd %.2f against the simulator's 2.00\n", bwd/fwd)
}

// predictProbe times Model.PredictInto on LeNet at the serving batch sizes.
func predictProbe(tr *tracer, seed int64, reps int, m map[string]metric) {
	model := scaledl.BuildModel(scaledl.LeNet(mnistShape(), 10), seed)
	images, _ := scaledl.SyntheticMNIST(seed, 32, 1)
	for _, b := range []int{1, 32} {
		x := images.Images[:b*model.InputDim()]
		out := make([]float32, b*model.Classes())
		name := fmt.Sprintf("nn.lenet.predict_b%d", b)
		_ = model.PredictInto(x, b, out) // warm the layer buffers
		for r := 0; r < 4*reps; r++ {
			id := tr.begin(name, -1, tr.newOp())
			err := model.PredictInto(x, b, out)
			tr.end(id)
			if err != nil {
				panic(err) // the shapes are fixed above
			}
		}
		m[name+"_ms"] = metric{tr.median(name), "ms"}
	}
}
