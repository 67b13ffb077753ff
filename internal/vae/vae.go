// Package vae implements the variational autoencoder at the heart of E2-NVM
// (§3.1–3.2): an encoder q_θ(z|x) mapping an m-bit memory-segment image to a
// low-dimensional Gaussian latent, a decoder p_φ(x|z) reconstructing the
// bits, and the loss
//
//	l(θ,φ) = −E_{z∼q}[log p(x|z)] + β·KL(q(z|x) ‖ N(0,I)) + γ·‖μ − c‖²
//
// where the final term is the joint K-means clustering loss E2-NVM adds so
// that latent features and cluster assignments are optimized together.
// Training is plain SGD-style minibatch Adam with the reparameterization
// trick; everything runs on the CPU with stdlib only, each minibatch spread
// over the available cores (see trainer).
package vae

import (
	"fmt"
	"math"
	"math/rand"

	"e2nvm/internal/mat"
	"e2nvm/internal/nn"
	"e2nvm/internal/par"
)

// Config describes the model architecture and training hyperparameters.
type Config struct {
	InputDim  int // number of bits per memory segment (model width w)
	HiddenDim int // encoder/decoder hidden width (default max(32, InputDim/4))
	LatentDim int // latent space size (paper uses ≈10; default 10)

	LR    float64 // Adam learning rate (default 1e-3)
	Beta  float64 // KL weight (default 1)
	Gamma float64 // joint clustering loss weight (default 0; enabled by core)
	Seed  int64
}

func (c *Config) withDefaults() (Config, error) {
	out := *c
	if out.InputDim <= 0 {
		return out, fmt.Errorf("vae: InputDim %d must be positive", out.InputDim)
	}
	if out.HiddenDim <= 0 {
		out.HiddenDim = out.InputDim / 4
		if out.HiddenDim < 32 {
			out.HiddenDim = 32
		}
	}
	if out.LatentDim <= 0 {
		out.LatentDim = 10
	}
	if out.LR <= 0 {
		out.LR = 1e-3
	}
	if out.Beta <= 0 {
		out.Beta = 1
	}
	return out, nil
}

// Loss reports the per-sample average loss components of a pass.
type Loss struct {
	Recon   float64 // binary cross-entropy reconstruction term
	KL      float64 // Kullback–Leibler term (unweighted)
	Cluster float64 // squared distance to assigned centroid (unweighted)
}

// Total returns the β/γ-weighted total loss under cfg.
func (l Loss) Total(beta, gamma float64) float64 {
	return l.Recon + beta*l.KL + gamma*l.Cluster
}

// EpochLoss pairs training and validation losses for one epoch.
type EpochLoss struct {
	Epoch      int
	Train      Loss
	Validation Loss // zero-valued when no validation set was supplied
}

// Model is a VAE.
type Model struct {
	cfg Config

	encH  *nn.Dense // InputDim → HiddenDim, ReLU
	encMu *nn.Dense // HiddenDim → LatentDim, identity
	encLV *nn.Dense // HiddenDim → LatentDim, identity (log-variance head)
	decH  *nn.Dense // LatentDim → HiddenDim, ReLU
	decO  *nn.Dense // HiddenDim → InputDim, identity logits (sigmoid fused into loss)

	opt *nn.Adam
	rng *rand.Rand
}

// New constructs a model from cfg.
func New(cfg Config) (*Model, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(c.Seed))
	m := &Model{
		cfg:   c,
		encH:  nn.NewDense(c.InputDim, c.HiddenDim, nn.ReLU, rng),
		encMu: nn.NewDense(c.HiddenDim, c.LatentDim, nn.Identity, rng),
		encLV: nn.NewDense(c.HiddenDim, c.LatentDim, nn.Identity, rng),
		decH:  nn.NewDense(c.LatentDim, c.HiddenDim, nn.ReLU, rng),
		decO:  nn.NewDense(c.HiddenDim, c.InputDim, nn.Identity, rng),
		rng:   rng,
	}
	m.opt = nn.NewAdam(c.LR)
	for _, l := range m.layers() {
		m.opt.Register(l.Params()...)
	}
	return m, nil
}

func (m *Model) layers() []*nn.Dense {
	return []*nn.Dense{m.encH, m.encMu, m.encLV, m.decH, m.decO}
}

// Config returns the (defaulted) configuration.
func (m *Model) Config() Config { return m.cfg }

// LatentDim returns the latent space width.
func (m *Model) LatentDim() int { return m.cfg.LatentDim }

// HiddenDim returns the encoder/decoder hidden width (the scratch size
// EncodeInto callers must provide).
func (m *Model) HiddenDim() int { return m.cfg.HiddenDim }

// InputDim returns the model input width in bits.
func (m *Model) InputDim() int { return m.cfg.InputDim }

// EncoderLayers exposes the deterministic encoder stack — the ReLU trunk
// (InputDim → HiddenDim) and the identity mean head (HiddenDim →
// LatentDim) — so inference kernels (internal/infer) can precompute
// layer-specific tables from the trained weights. The returned layers are
// the model's own: callers must treat them as frozen and never mutate or
// train through them.
func (m *Model) EncoderLayers() (encH, encMu *nn.Dense) { return m.encH, m.encMu }

// ParamCount returns the number of trainable scalars.
func (m *Model) ParamCount() int {
	n := 0
	for _, l := range m.layers() {
		n += l.ParamCount()
	}
	return n
}

// FLOPsPerPredict estimates multiply-accumulates for one encoder pass,
// consumed by the energy profiler.
func (m *Model) FLOPsPerPredict() float64 {
	return nn.FLOPsDense(m.cfg.InputDim, m.cfg.HiddenDim) + 2*nn.FLOPsDense(m.cfg.HiddenDim, m.cfg.LatentDim)
}

// Encode returns the latent mean μ for x — the deterministic embedding used
// for prediction after training. x must have InputDim entries in [0,1].
// Encode is safe for concurrent use on a trained model: it runs the
// stateless inference path and never touches the training caches.
func (m *Model) Encode(x []float64) []float64 {
	return m.EncodeInto(x, make([]float64, m.cfg.HiddenDim), make([]float64, m.cfg.LatentDim))
}

// EncodeInto is Encode writing into caller-provided scratch: h and mu must
// have capacity for HiddenDim and LatentDim values respectively. It returns
// mu resliced to LatentDim. Like Encode it is safe for concurrent use on a
// trained model, provided each caller supplies its own scratch.
func (m *Model) EncodeInto(x, h, mu []float64) []float64 {
	if len(x) != m.cfg.InputDim {
		panic(fmt.Sprintf("vae: Encode input %d, want %d", len(x), m.cfg.InputDim))
	}
	h = h[:m.cfg.HiddenDim]
	mu = mu[:m.cfg.LatentDim]
	m.encH.Apply(x, h)
	m.encMu.Apply(h, mu)
	return mu
}

// EncodeAll embeds every row of data, spreading the rows over goroutines;
// each row's latent is bit-identical to Encode's.
func (m *Model) EncodeAll(data [][]float64) [][]float64 {
	// Checked before forking: a worker's panic would not reach the caller.
	for _, x := range data {
		if len(x) != m.cfg.InputDim {
			panic(fmt.Sprintf("vae: Encode input %d, want %d", len(x), m.cfg.InputDim))
		}
	}
	out := make([][]float64, len(data))
	par.For(len(data), len(data)*m.cfg.InputDim*m.cfg.HiddenDim, func(lo, hi int) {
		in := nn.Input{Ones: make([]int32, 0, m.cfg.InputDim)}
		h := make([]float64, m.cfg.HiddenDim)
		for i := lo; i < hi; i++ {
			in.Set(data[i])
			m.encH.ApplyInput(&in, h)
			out[i] = make([]float64, m.cfg.LatentDim)
			m.encMu.Apply(h, out[i])
		}
	})
	return out
}

// Reconstruct runs a full deterministic pass (z = μ) and returns the
// per-bit Bernoulli means.
func (m *Model) Reconstruct(x []float64) []float64 {
	mu := m.Encode(x)
	h := m.decH.Forward(mu)
	logits := m.decO.Forward(h)
	out := make([]float64, len(logits))
	for i, l := range logits {
		out[i] = sigmoid(l)
	}
	return out
}

// TrainBatch performs one optimizer step on the given minibatch. centroids,
// when non-nil, supplies the current K-means centroids for the joint
// clustering term (each sample is pulled toward its nearest centroid with
// weight Gamma). Returns the batch-average loss.
func (m *Model) TrainBatch(batch [][]float64, centroids [][]float64) Loss {
	if len(batch) == 0 {
		return Loss{}
	}
	return m.newTrainer(len(batch)).step(batch, centroids)
}

// rowGrain is the number of ranges the gradient sum's For splits into;
// each range takes the same share of every layer's rows.
const rowGrain = 1 << 10

// trainer runs batch-phased minibatch steps. Within one minibatch the
// weights are fixed until the optimizer step, so the samples are
// independent apart from their noise draws and the order of the gradient
// sums. A step therefore (1) draws every sample's ε from the model's RNG
// in sample order, (2) runs each sample's forward pass, loss terms and
// per-layer δ on its own buffers, samples spread over goroutines, (3) sums
// the gradients with each layer's rows spread over goroutines, every
// element adding the samples in sample order, (4) runs the Adam update
// spread over elements, and (5) sums the losses in sample order. The
// result has the bits of running the samples one after another through
// Forward/Backward. A trainer lives for one Fit (or one TrainBatch call)
// and is not kept in the Model.
type trainer struct {
	m       *Model
	samples []sample
	// sampleWork and rowWork estimate one sample's multiply-adds in
	// phases (2) and (3), for par.For's serial cut-off.
	sampleWork, rowWork int

	// each layer's δ and input per sample, as AccumulateRows takes them;
	// grads[0].ins holds the images themselves (sample.in points there)
	grads []layerGrad
}

// layerGrad pairs a layer with its per-sample δs and inputs.
type layerGrad struct {
	l      *nn.Dense
	deltas [][]float64
	ins    []nn.Input
}

// sample is one minibatch sample's forward activations, gradients and loss.
type sample struct {
	in     *nn.Input // the segment image, with its 1s when binary
	eps    []float64 // reparameterization noise, drawn before the batch forks
	h1     []float64 // encoder trunk output
	dH1    []float64 // encoder trunk δ
	mu, lv []float64 // latent mean and clamped log-variance
	// ∂L/∂μ and ∂L/∂logvar, which are also the two identity heads' δ
	gMu, gLV []float64
	z, gZ    []float64 // latent sample and ∂L/∂z
	gLVH     []float64 // the log-variance head's share of ∂L/∂h1
	h2, dH2  []float64 // decoder hidden output and its δ
	// the logits, overwritten by ∂L/∂logits: the identity output
	// layer's δ
	dO   []float64
	loss Loss
}

// newTrainer allocates buffers for minibatches of up to n samples.
func (m *Model) newTrainer(n int) *trainer {
	in, hid, lat := m.cfg.InputDim, m.cfg.HiddenDim, m.cfg.LatentDim
	t := &trainer{
		m:          m,
		samples:    make([]sample, n),
		sampleWork: 3*in*hid + 6*hid*lat,
		rowWork:    2*in*hid + 3*hid*lat,
	}
	slab := make([]float64, n*(in+5*hid+7*lat))
	take := func(k int) []float64 {
		b := slab[:k:k]
		slab = slab[k:]
		return b
	}
	ones := make([]int32, n*in)
	t.grads = []layerGrad{{l: m.encH}, {l: m.encMu}, {l: m.encLV}, {l: m.decH}, {l: m.decO}}
	for i := range t.grads {
		t.grads[i].deltas = make([][]float64, n)
		t.grads[i].ins = make([]nn.Input, n)
	}
	g := t.grads
	for i := range t.samples {
		s := &t.samples[i]
		s.eps, s.mu, s.lv, s.gMu, s.gLV, s.z, s.gZ = take(lat), take(lat), take(lat), take(lat), take(lat), take(lat), take(lat)
		s.h1, s.dH1, s.gLVH, s.h2, s.dH2 = take(hid), take(hid), take(hid), take(hid), take(hid)
		s.dO = take(in)
		s.in = &g[0].ins[i]
		s.in.Ones = ones[i*in : i*in : (i+1)*in]
		g[0].deltas[i] = s.dH1
		g[1].deltas[i], g[1].ins[i].X = s.gMu, s.h1
		g[2].deltas[i], g[2].ins[i].X = s.gLV, s.h1
		g[3].deltas[i], g[3].ins[i].X = s.dH2, s.z
		g[4].deltas[i], g[4].ins[i].X = s.dO, s.h2
	}
	return t
}

// step performs one optimizer step on batch (at most len(t.samples)
// rows) and returns the batch-average loss.
func (t *trainer) step(batch [][]float64, centroids [][]float64) Loss {
	m := t.m
	n := len(batch)
	ss := t.samples[:n]
	for i, x := range batch {
		if len(x) != m.cfg.InputDim {
			panic(fmt.Sprintf("vae: train input %d, want %d", len(x), m.cfg.InputDim))
		}
		for j := range ss[i].eps {
			ss[i].eps[j] = m.rng.NormFloat64()
		}
	}
	scale := 1.0 / float64(n)
	par.For(n, n*t.sampleWork, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ss[i].in.Set(batch[i])
			t.forwardBackward(&ss[i], centroids, scale)
		}
	})
	par.For(rowGrain, n*t.rowWork, func(lo, hi int) {
		for _, g := range t.grads {
			r0, r1 := par.Band(lo, hi, rowGrain, g.l.Out)
			g.l.AccumulateRows(r0, r1, g.deltas[:n], g.ins[:n])
		}
	})
	m.opt.Step()
	var agg Loss
	for i := range ss {
		agg = addLoss(agg, ss[i].loss)
	}
	return scaleLoss(agg, scale)
}

// forwardBackward runs one sample's forward pass and loss terms and
// leaves every layer's δ in s, with the loss gradient scaled by
// gradScale. It reads the weights and writes only s.
func (t *trainer) forwardBackward(s *sample, centroids [][]float64, gradScale float64) {
	m := t.m
	x := s.in.X
	// ---- forward ----
	m.encH.ApplyInput(s.in, s.h1)
	m.encMu.Apply(s.h1, s.mu)
	m.encLV.Apply(s.h1, s.lv)
	for i := range s.lv {
		s.lv[i] = clamp(s.lv[i], -8, 8) // keep exp() sane early in training
	}
	for i := range s.z {
		s.z[i] = s.mu[i] + s.eps[i]*math.Exp(0.5*s.lv[i])
	}
	m.decH.Apply(s.z, s.h2)
	m.decO.Apply(s.h2, s.dO)

	var loss Loss
	// ---- reconstruction (sigmoid + BCE fused, numerically stable) ----
	for i, l := range s.dO {
		xi := x[i]
		loss.Recon += bceWithLogit(l, xi)
		s.dO[i] = (sigmoid(l) - xi) * gradScale
	}
	// ---- KL(q ‖ N(0,I)) ----
	for i := range s.mu {
		loss.KL += 0.5 * (s.mu[i]*s.mu[i] + math.Exp(s.lv[i]) - 1 - s.lv[i])
		s.gMu[i] = m.cfg.Beta * s.mu[i] * gradScale
		s.gLV[i] = m.cfg.Beta * 0.5 * (math.Exp(s.lv[i]) - 1) * gradScale
	}
	// ---- joint clustering term ----
	if centroids != nil && m.cfg.Gamma > 0 {
		c := nearestCentroid(s.mu, centroids)
		loss.Cluster = mat.SqDist(s.mu, centroids[c])
		for i := range s.mu {
			s.gMu[i] += 2 * m.cfg.Gamma * (s.mu[i] - centroids[c][i]) * gradScale
		}
	}
	// ---- backward through the decoder to z ----
	// decO is an identity layer, so its δ is ∂L/∂logits itself.
	m.decO.W.MulVecT(s.dO, s.dH2)
	m.decH.Delta(s.dH2, s.h2, s.dH2)
	m.decH.W.MulVecT(s.dH2, s.gZ)
	// Reparameterization: ∂z/∂μ = 1, ∂z/∂logvar = ½·ε·exp(½·logvar).
	for i := range s.gZ {
		s.gMu[i] += s.gZ[i]
		s.gLV[i] += s.gZ[i] * 0.5 * s.eps[i] * math.Exp(0.5*s.lv[i])
	}
	// ---- backward through the two encoder heads into the trunk ----
	// The trunk's own input gradient is never needed, so it is not
	// computed.
	m.encMu.W.MulVecT(s.gMu, s.dH1)
	m.encLV.W.MulVecT(s.gLV, s.gLVH)
	mat.AddScaled(s.dH1, 1, s.gLVH)
	m.encH.Delta(s.dH1, s.h1, s.dH1)
	s.loss = loss
}

// Evaluate computes the average loss of data without updating parameters
// (z = μ, no sampling noise), optionally with the cluster term.
func (m *Model) Evaluate(data [][]float64, centroids [][]float64) Loss {
	if len(data) == 0 {
		return Loss{}
	}
	var agg Loss
	for _, x := range data {
		mu := m.Encode(x)
		h := m.decH.Forward(mu)
		logits := m.decO.Forward(h)
		var l Loss
		for i, lg := range logits {
			l.Recon += bceWithLogit(lg, x[i])
		}
		hEnc := m.encH.Forward(x)
		lv := m.encLV.Forward(hEnc)
		for i := range mu {
			l.KL += 0.5 * (mu[i]*mu[i] + math.Exp(clamp(lv[i], -8, 8)) - 1 - clamp(lv[i], -8, 8))
		}
		if centroids != nil {
			l.Cluster = mat.SqDist(mu, centroids[nearestCentroid(mu, centroids)])
		}
		agg = addLoss(agg, l)
	}
	return scaleLoss(agg, 1/float64(len(data)))
}

// FitOptions controls Fit.
type FitOptions struct {
	Epochs     int
	BatchSize  int
	Validation [][]float64 // optional hold-out set evaluated per epoch
	Centroids  [][]float64 // optional fixed centroids for the joint term
	// OnEpoch, when non-nil, is invoked after each epoch (e.g. to update
	// centroids for joint training or to record energy samples).
	OnEpoch func(e EpochLoss)
}

// Fit trains the model and returns the per-epoch loss history.
func (m *Model) Fit(data [][]float64, opts FitOptions) ([]EpochLoss, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("vae: empty training set")
	}
	if opts.Epochs <= 0 {
		opts.Epochs = 20
	}
	if opts.BatchSize <= 0 {
		opts.BatchSize = 32
	}
	history := make([]EpochLoss, 0, opts.Epochs)
	t := m.newTrainer(min(opts.BatchSize, len(data)))
	batch := make([][]float64, 0, opts.BatchSize)
	idx := make([]int, len(data))
	for i := range idx {
		idx[i] = i
	}
	for e := 0; e < opts.Epochs; e++ {
		m.rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var agg Loss
		batches := 0
		for lo := 0; lo < len(idx); lo += opts.BatchSize {
			hi := lo + opts.BatchSize
			if hi > len(idx) {
				hi = len(idx)
			}
			batch = batch[:0]
			for _, i := range idx[lo:hi] {
				batch = append(batch, data[i])
			}
			agg = addLoss(agg, t.step(batch, opts.Centroids))
			batches++
		}
		el := EpochLoss{Epoch: e, Train: scaleLoss(agg, 1/float64(batches))}
		if len(opts.Validation) > 0 {
			el.Validation = m.Evaluate(opts.Validation, opts.Centroids)
		}
		history = append(history, el)
		if opts.OnEpoch != nil {
			opts.OnEpoch(el)
		}
	}
	return history, nil
}

func nearestCentroid(x []float64, centroids [][]float64) int {
	best, bestD := 0, math.Inf(1)
	for c, cent := range centroids {
		if d := mat.SqDist(x, cent); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// bceWithLogit is the numerically stable binary cross-entropy
// max(l,0) − l·x + log(1 + e^{−|l|}).
func bceWithLogit(l, x float64) float64 {
	v := l
	if v < 0 {
		v = 0
	}
	return v - l*x + math.Log1p(math.Exp(-math.Abs(l)))
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

func addLoss(a, b Loss) Loss {
	return Loss{Recon: a.Recon + b.Recon, KL: a.KL + b.KL, Cluster: a.Cluster + b.Cluster}
}

func scaleLoss(l Loss, s float64) Loss {
	return Loss{Recon: l.Recon * s, KL: l.KL * s, Cluster: l.Cluster * s}
}
