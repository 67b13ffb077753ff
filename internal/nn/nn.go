// Package nn provides the feed-forward building blocks shared by the VAE
// and the learned-padding models: dense layers with activations, manual
// backpropagation, and the Adam optimizer. Minibatch training averages by
// scaling the loss gradient.
//
// A layer trains in one of two ways. Forward/Backward process one sample
// at a time through the layer's own caches and accumulate its gradient
// (the LSTM head uses them). The batch kernels — ApplyInput, Delta and
// AccumulateRows, with W.MulVecT for ∂L/∂x — keep no state: a minibatch
// runs each sample's forward and backward pass on its own buffers, in
// parallel, and then sums the gradients row by row, each element adding
// the samples in sample order. Both ways produce the same bits.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"e2nvm/internal/mat"
	"e2nvm/internal/par"
)

// Activation selects a layer's nonlinearity.
type Activation int

// Supported activations.
const (
	Identity Activation = iota
	ReLU
	Sigmoid
	Tanh
)

// String returns the activation's name.
func (a Activation) String() string {
	switch a {
	case Identity:
		return "identity"
	case ReLU:
		return "relu"
	case Sigmoid:
		return "sigmoid"
	case Tanh:
		return "tanh"
	default:
		return fmt.Sprintf("Activation(%d)", int(a))
	}
}

// Apply computes σ(x). Exported so inference kernels outside this package
// (internal/infer) can reproduce Dense.Apply's activation exactly.
func (a Activation) Apply(x float64) float64 { return a.apply(x) }

func (a Activation) apply(x float64) float64 {
	switch a {
	case ReLU:
		if x < 0 {
			return 0
		}
		return x
	case Sigmoid:
		return 1 / (1 + math.Exp(-x))
	case Tanh:
		return math.Tanh(x)
	default:
		return x
	}
}

// derivFromOutput returns dσ/dx expressed in terms of the activated output
// y (possible for all supported activations).
func (a Activation) derivFromOutput(y float64) float64 {
	switch a {
	case ReLU:
		if y > 0 {
			return 1
		}
		return 0
	case Sigmoid:
		return y * (1 - y)
	case Tanh:
		return 1 - y*y
	default:
		return 1
	}
}

// Dense is a fully connected layer: y = σ(W·x + b).
type Dense struct {
	In, Out int
	Act     Activation

	W *mat.Matrix // Out×In
	B []float64

	GW *mat.Matrix // gradient accumulators
	GB []float64

	// forward caches for the most recent sample
	x []float64
	y []float64
}

// NewDense returns a Glorot-initialized dense layer.
func NewDense(in, out int, act Activation, rng *rand.Rand) *Dense {
	return &Dense{
		In:  in,
		Out: out,
		Act: act,
		W:   mat.NewRandom(out, in, rng),
		B:   make([]float64, out),
		GW:  mat.NewMatrix(out, in),
		GB:  make([]float64, out),
		x:   make([]float64, in),
		y:   make([]float64, out),
	}
}

// Forward computes the layer output for one sample, caching the
// activations needed by Backward. The returned slice is reused across
// calls; copy it if it must survive the next Forward.
func (d *Dense) Forward(x []float64) []float64 {
	copy(d.x, x)
	d.W.MulVec(x, d.y)
	for i := range d.y {
		d.y[i] = d.Act.apply(d.y[i] + d.B[i])
	}
	return d.y
}

// Apply computes σ(W·x + b) into out without touching the training caches,
// so it is safe for concurrent use on a frozen layer (inference path).
func (d *Dense) Apply(x, out []float64) {
	if len(out) != d.Out {
		panic(fmt.Sprintf("nn: Apply output size %d, want %d", len(out), d.Out))
	}
	d.W.MulVec(x, out)
	for i := range out {
		out[i] = d.Act.apply(out[i] + d.B[i])
	}
}

// Backward consumes ∂L/∂y for the cached sample, accumulates parameter
// gradients into GW/GB, and returns ∂L/∂x. The returned slice is freshly
// allocated.
func (d *Dense) Backward(gradY []float64) []float64 {
	if len(gradY) != d.Out {
		panic(fmt.Sprintf("nn: Backward grad size %d, want %d", len(gradY), d.Out))
	}
	// δ = gradY ⊙ σ'(preact), with σ' recovered from the cached output.
	delta := make([]float64, d.Out)
	for i := range delta {
		delta[i] = gradY[i] * d.Act.derivFromOutput(d.y[i])
	}
	d.GW.AddOuter(1, delta, d.x)
	mat.AddScaled(d.GB, 1, delta)
	gradX := make([]float64, d.In)
	d.W.MulVecT(delta, gradX)
	return gradX
}

// Input is one sample's input to a layer, as the batch kernels take it.
// When Binary is set every entry of X is exactly 0 or 1 and Ones lists the
// indices of the 1s in increasing order; the kernels then add weights at
// those indices instead of multiplying every weight by 0 or 1.
type Input struct {
	X      []float64
	Ones   []int32
	Binary bool
}

// Set points in at x and records whether x is binary, reusing the
// backing array of in.Ones.
func (in *Input) Set(x []float64) {
	in.X = x
	in.Ones = in.Ones[:0]
	in.Binary = true
	for j, v := range x {
		switch v {
		case 0:
		case 1:
			in.Ones = append(in.Ones, int32(j))
		default:
			in.Binary = false
			in.Ones = in.Ones[:0]
			return
		}
	}
}

// ApplyInput is Apply for one batch input. On a binary input each output
// sums the weights at the input's 1s, in index order. That is the dense
// sum with its zero terms left out: the sum starts at +0 and so never is
// −0, and adding ±0 to a value that is not −0 leaves it unchanged (w·1 is
// w), so both routes give the same bits for finite weights.
func (d *Dense) ApplyInput(in *Input, out []float64) {
	if !in.Binary {
		d.Apply(in.X, out)
		return
	}
	if len(in.X) != d.In || len(out) != d.Out {
		panic(fmt.Sprintf("nn: ApplyInput sizes %d→%d, want %d→%d", len(in.X), len(out), d.In, d.Out))
	}
	// Four rows side by side, as in mat.MulVec: four independent sums
	// share each pass over the 1s, and each keeps its own order.
	i := 0
	for ; i+4 <= d.Out; i += 4 {
		r0, r1, r2, r3 := d.W.Row(i), d.W.Row(i+1), d.W.Row(i+2), d.W.Row(i+3)
		var s0, s1, s2, s3 float64
		for _, j := range in.Ones {
			s0 += r0[j]
			s1 += r1[j]
			s2 += r2[j]
			s3 += r3[j]
		}
		out[i] = d.Act.apply(s0 + d.B[i])
		out[i+1] = d.Act.apply(s1 + d.B[i+1])
		out[i+2] = d.Act.apply(s2 + d.B[i+2])
		out[i+3] = d.Act.apply(s3 + d.B[i+3])
	}
	for ; i < d.Out; i++ {
		row := d.W.Row(i)
		s := 0.0
		for _, j := range in.Ones {
			s += row[j]
		}
		out[i] = d.Act.apply(s + d.B[i])
	}
}

// Delta computes δ = gradY ⊙ σ'(preact) into delta from the layer's
// output y, as Backward does from its cache. delta may alias gradY.
func (d *Dense) Delta(gradY, y, delta []float64) {
	for i := range delta {
		delta[i] = gradY[i] * d.Act.derivFromOutput(y[i])
	}
}

// AccumulateRows sets rows [lo, hi) of GW and GB to the minibatch gradient
// Σₛ δₛ ⊗ xₛ, where deltas[s] and ins[s] are sample s's δ and input. Every
// element adds the samples in sample order, with the arithmetic of
// Backward's AddOuter, so the result has the bits of ZeroGrad followed by
// one Backward per sample. On a binary input only the 1s are added: GW
// starts at +0 and is never −0, so the skipped ±0 terms change nothing.
// Callers on separate goroutines pass disjoint row ranges.
func (d *Dense) AccumulateRows(lo, hi int, deltas [][]float64, ins []Input) {
	for i := lo; i < hi; i++ {
		row := d.GW.Row(i)
		mat.Fill(row, 0)
		gb := 0.0
		for s := 0; s < len(deltas); {
			if s+4 <= len(deltas) && dense4(deltas[s:s+4], ins[s:s+4], i) {
				// Four dense samples with nonzero δ in one pass over the
				// row, each element adding their terms in sample order.
				d0, d1, d2, d3 := deltas[s][i], deltas[s+1][i], deltas[s+2][i], deltas[s+3][i]
				x0, x1, x2, x3 := ins[s].X[:len(row)], ins[s+1].X[:len(row)], ins[s+2].X[:len(row)], ins[s+3].X[:len(row)]
				for j, r := range row {
					r += d0 * x0[j]
					r += d1 * x1[j]
					r += d2 * x2[j]
					r += d3 * x3[j]
					row[j] = r
				}
				gb += d0
				gb += d1
				gb += d2
				gb += d3
				s += 4
				continue
			}
			di := deltas[s][i]
			gb += di
			if di != 0 {
				if in := &ins[s]; in.Binary {
					for _, j := range in.Ones {
						row[j] += di
					}
				} else {
					for j, v := range in.X {
						row[j] += di * v
					}
				}
			}
			s++
		}
		d.GB[i] = gb
	}
}

// dense4 reports whether four samples are all dense with a nonzero δ at
// row i, the case AccumulateRows adds in one pass.
func dense4(deltas [][]float64, ins []Input, i int) bool {
	for s := range ins {
		if ins[s].Binary || deltas[s][i] == 0 {
			return false
		}
	}
	return true
}

// ZeroGrad clears the accumulated gradients.
func (d *Dense) ZeroGrad() {
	d.GW.Zero()
	mat.Fill(d.GB, 0)
}

// Params returns the layer's parameter/gradient pairs for optimizer
// registration.
func (d *Dense) Params() []Param {
	return []Param{{W: d.W.Data, G: d.GW.Data}, {W: d.B, G: d.GB}}
}

// ParamCount returns the number of trainable scalars.
func (d *Dense) ParamCount() int { return len(d.W.Data) + len(d.B) }

// Param pairs a parameter tensor with its gradient accumulator.
type Param struct {
	W []float64
	G []float64
}

// Adam implements the Adam optimizer with bias correction.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64

	t      int
	params []Param
	m, v   [][]float64
}

// NewAdam returns an Adam optimizer with the canonical hyperparameters
// (β1=0.9, β2=0.999, ε=1e-8).
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8}
}

// Register adds parameter tensors to be updated by Step.
func (a *Adam) Register(params ...Param) {
	for _, p := range params {
		if len(p.W) != len(p.G) {
			panic("nn: Adam parameter/gradient length mismatch")
		}
		a.params = append(a.params, p)
		a.m = append(a.m, make([]float64, len(p.W)))
		a.v = append(a.v, make([]float64, len(p.W)))
	}
}

// adamGrain is the number of ranges Step's For splits the parameters
// into; each range takes the same share of every tensor.
const adamGrain = 1 << 10

// Step applies one Adam update using the gradients currently accumulated
// in the registered tensors, then leaves the gradients untouched (callers
// zero them between batches). Elements update independently, so large
// models split the update across goroutines without changing a bit.
func (a *Adam) Step() {
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	n := 0
	for _, p := range a.params {
		n += len(p.W)
	}
	par.For(adamGrain, 8*n, func(lo, hi int) {
		for pi, p := range a.params {
			elo, ehi := par.Band(lo, hi, adamGrain, len(p.W))
			a.stepRange(pi, elo, ehi, c1, c2)
		}
	})
}

// stepRange updates elements [lo, hi) of registered tensor pi.
func (a *Adam) stepRange(pi, lo, hi int, c1, c2 float64) {
	p, m, v := a.params[pi], a.m[pi], a.v[pi]
	for i := lo; i < hi; i++ {
		g := p.G[i]
		m[i] = a.Beta1*m[i] + (1-a.Beta1)*g
		v[i] = a.Beta2*v[i] + (1-a.Beta2)*g*g
		mh := m[i] / c1
		vh := v[i] / c2
		p.W[i] -= a.LR * mh / (math.Sqrt(vh) + a.Epsilon)
	}
}

// Moments returns the optimizer's first and second moment estimates, one
// slice per registered tensor in registration order (aliasing its state).
func (a *Adam) Moments() (m, v [][]float64) { return a.m, a.v }

// StepCount returns the number of optimizer steps taken.
func (a *Adam) StepCount() int { return a.t }

// FLOPsDense returns an estimate of the multiply-accumulate operations for
// one forward pass through a dense layer, used by the energy profiler to
// charge model-compute energy.
func FLOPsDense(in, out int) float64 { return 2 * float64(in) * float64(out) }
