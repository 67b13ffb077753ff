// Package core implements the E2-NVM model itself (§3.2–3.4): the VAE
// encoder jointly trained with K-means clustering over the latent space,
// the padding front-end for undersized items, elbow-based selection of K,
// and the background-retraining manager that swaps in a freshly trained
// model when the dynamic address pool runs low.
//
// Training follows the paper's recipe: (1) pretrain the VAE on the bit
// images of the memory segments, (2) run K-means on the latent means,
// (3) fine-tune the VAE with the joint clustering loss pulling latents
// toward their centroids while re-fitting the centroids, and (4) keep only
// the encoder + centroids for prediction.
package core

import (
	"errors"
	"fmt"
	"sync"

	"e2nvm/internal/bitvec"
	"e2nvm/internal/infer"
	"e2nvm/internal/kmeans"
	"e2nvm/internal/padding"
	"e2nvm/internal/par"
	"e2nvm/internal/vae"
)

// Config controls model architecture and training.
type Config struct {
	// InputBits is the model width w: the number of bits in one memory
	// segment image.
	InputBits int
	// K is the number of clusters. 0 selects K automatically with the
	// elbow method over ElbowRange.
	K int
	// ElbowRange is the candidate K values scanned when K == 0
	// (default 2..12).
	ElbowRange []int

	HiddenDim int
	LatentDim int

	Epochs      int     // VAE pretraining epochs (default 15)
	JointEpochs int     // joint fine-tuning epochs with cluster loss (default 5)
	BatchSize   int     // default 32
	Beta        float64 // KL weight (default 0.1 — bits are near-deterministic)
	Gamma       float64 // cluster-loss weight during fine-tuning (default 0.5)
	LR          float64

	// PadLocation/PadType select the padding strategy for items narrower
	// than InputBits. Unless PadExplicit is set, the zero value selects
	// the default strategy End + InputBased.
	PadLocation padding.Location
	PadType     padding.Type
	// PadExplicit marks PadLocation/PadType as deliberately chosen, so
	// that Begin+Zero (their zero values) can be requested explicitly.
	PadExplicit bool
	// LearnedPadWindow/LearnedPadPredict configure the sliding-window
	// LSTM when PadType == Learned (defaults 64 and 8, the paper's).
	LearnedPadWindow  int
	LearnedPadPredict int
	LearnedPadHidden  int // default 10
	LearnedPadEpochs  int // default 20

	Seed int64
}

func (c Config) withDefaults() (Config, error) {
	if c.InputBits <= 0 {
		return c, fmt.Errorf("core: InputBits %d must be positive: %w", c.InputBits, ErrBadConfig)
	}
	if c.K < 0 {
		return c, fmt.Errorf("core: K %d must be non-negative: %w", c.K, ErrBadConfig)
	}
	if len(c.ElbowRange) == 0 {
		c.ElbowRange = []int{2, 3, 4, 5, 6, 8, 10, 12}
	}
	if c.Epochs <= 0 {
		c.Epochs = 15
	}
	if c.JointEpochs < 0 {
		c.JointEpochs = 0
	} else if c.JointEpochs == 0 {
		c.JointEpochs = 5
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.Beta <= 0 {
		c.Beta = 0.1
	}
	if c.Gamma <= 0 {
		c.Gamma = 0.5
	}
	if !c.PadExplicit && c.PadType == padding.Zero && c.PadLocation == padding.Begin {
		c.PadLocation = padding.End
		c.PadType = padding.InputBased
	}
	if c.LearnedPadWindow <= 0 {
		c.LearnedPadWindow = 64
	}
	if c.LearnedPadPredict <= 0 {
		c.LearnedPadPredict = 8
	}
	if c.LearnedPadHidden <= 0 {
		c.LearnedPadHidden = 10
	}
	if c.LearnedPadEpochs <= 0 {
		c.LearnedPadEpochs = 20
	}
	return c, nil
}

// Model is a trained E2-NVM predictor: VAE encoder + K-means centroids +
// padding front-end. Prediction methods are safe for concurrent use
// (they are read-only after training), matching the paper's note that VAE
// operations in the serving path are read-only.
type Model struct {
	cfg Config
	vae *vae.Model
	km  *kmeans.Model

	// kern is the bit-native inference kernel built from the trained
	// encoder + centroids (nil when the geometry cannot be
	// table-accelerated; prediction then stays on the float path). It is
	// immutable and set before the model is published, so serving never
	// observes a half-built table; a retrain produces a whole new Model
	// with its own kernel at a fresh infer version.
	kern *infer.Kernel

	history   []vae.EpochLoss
	sseCurve  []float64 // populated when K was chosen by the elbow method
	trainedOn int

	// scratch pools *predictScratch buffers so the PredictBytes serving
	// path does not allocate in steady state.
	scratch sync.Pool

	mu     sync.Mutex // guards padder (its RNG and dataset stats mutate)
	padder *padding.Padder
}

// predictScratch holds the reusable buffers of one PredictBytes call: the
// expanded bit image, the padded model input, the packed kernel input,
// and the encoder activations.
type predictScratch struct {
	bits, padded, h, mu []float64
	packed              []byte
}

// ErrBadSegment reports an item whose geometry does not match the model or
// store configuration (wrong width, oversized value, misconfigured segment
// size). Callers detect it with errors.Is.
var ErrBadSegment = errors.New("segment geometry mismatch")

// ErrBadConfig reports an invalid model configuration (non-positive width,
// negative K). Callers detect it with errors.Is.
var ErrBadConfig = errors.New("invalid model config")

// ErrBadTrainingSet reports training data the model cannot be fitted on
// (empty, wrong row width, too few samples for the elbow range).
var ErrBadTrainingSet = errors.New("invalid training set")

// ErrBadSnapshot reports a serialized model that cannot be restored.
var ErrBadSnapshot = errors.New("invalid model snapshot")

// Train fits an E2-NVM model on the bit images of the current memory
// segments. Each row of data must hold exactly cfg.InputBits values in
// {0,1}; BytesToBits converts raw segment contents.
func Train(data [][]float64, cfg Config) (*Model, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("core: empty training set: %w", ErrBadTrainingSet)
	}
	for i, row := range data {
		if len(row) != c.InputBits {
			return nil, fmt.Errorf("core: row %d has %d bits, want %d: %w", i, len(row), c.InputBits, ErrBadTrainingSet)
		}
	}

	v, err := vae.New(vae.Config{
		InputDim:  c.InputBits,
		HiddenDim: c.HiddenDim,
		LatentDim: c.LatentDim,
		LR:        c.LR,
		Beta:      c.Beta,
		Gamma:     c.Gamma,
		Seed:      c.Seed,
	})
	if err != nil {
		return nil, err
	}
	m := &Model{cfg: c, vae: v, trainedOn: len(data)}

	// (1) Pretrain the VAE.
	hist, err := v.Fit(data, vae.FitOptions{Epochs: c.Epochs, BatchSize: c.BatchSize})
	if err != nil {
		return nil, err
	}
	m.history = hist

	// (2) Cluster latents; choose K by the elbow method when unset.
	latents := v.EncodeAll(data)
	k := c.K
	if k == 0 {
		ks := feasibleKs(c.ElbowRange, len(data))
		if len(ks) == 0 {
			return nil, fmt.Errorf("core: no feasible K in elbow range for %d samples: %w", len(data), ErrBadTrainingSet)
		}
		curve, err := kmeans.SSECurve(latents, ks, c.Seed)
		if err != nil {
			return nil, err
		}
		m.sseCurve = curve
		k = ks[kmeans.ElbowPoint(curve)]
	}
	if k > len(data) {
		k = len(data)
	}
	kcfg := kmeans.NewConfig(k)
	kcfg.Seed = c.Seed
	km, err := kmeans.Fit(latents, kcfg)
	if err != nil {
		return nil, err
	}
	m.km = km

	// (3) Joint fine-tuning: alternate VAE epochs (with the cluster pull)
	// and centroid refits.
	for e := 0; e < c.JointEpochs; e++ {
		h, err := v.Fit(data, vae.FitOptions{Epochs: 1, BatchSize: c.BatchSize, Centroids: km.Centroids})
		if err != nil {
			return nil, err
		}
		m.history = append(m.history, h...)
		latents = v.EncodeAll(data)
		km, err = kmeans.Fit(latents, kcfg)
		if err != nil {
			return nil, err
		}
		m.km = km
	}

	// (4) Padding front-end.
	p := padding.New(c.PadLocation, c.PadType, c.Seed+1)
	for _, row := range data {
		p.Observe(row)
	}
	if c.PadType == padding.Learned {
		net, err := padding.TrainLearnedModel(data, c.LearnedPadWindow, c.LearnedPadPredict,
			c.LearnedPadHidden, c.LearnedPadEpochs, c.Seed+2)
		if err != nil {
			return nil, err
		}
		p.SetModel(net, c.LearnedPadWindow, c.LearnedPadPredict)
	}
	m.padder = p
	m.kern = buildKernel(m.vae, m.km)
	return m, nil
}

// buildKernel constructs the bit-native inference kernel for a trained
// encoder + centroid set, or nil when the geometry cannot be
// table-accelerated (input not byte-aligned, or no group width fits the
// table budget) — the serving path then falls back to the float encoder.
func buildKernel(v *vae.Model, km *kmeans.Model) *infer.Kernel {
	encH, encMu := v.EncoderLayers()
	k, err := infer.New(encH, encMu, km.Centroids)
	if err != nil {
		return nil
	}
	return k
}

// feasibleKs filters candidate K values to those not exceeding the sample
// count.
func feasibleKs(ks []int, n int) []int {
	var out []int
	for _, k := range ks {
		if k >= 1 && k <= n {
			out = append(out, k)
		}
	}
	return out
}

// Config returns the defaulted configuration the model was trained with.
func (m *Model) Config() Config { return m.cfg }

// K returns the number of clusters.
func (m *Model) K() int { return m.km.K }

// InputBits returns the model width w.
func (m *Model) InputBits() int { return m.cfg.InputBits }

// History returns the training loss curve (pretraining followed by joint
// fine-tuning epochs).
func (m *Model) History() []vae.EpochLoss { return m.history }

// SSECurve returns the elbow-method SSE values when K was auto-selected,
// or nil when K was fixed.
func (m *Model) SSECurve() []float64 { return m.sseCurve }

// TrainedOn returns the number of segment images the model was fitted on.
func (m *Model) TrainedOn() int { return m.trainedOn }

// Centroids exposes the latent-space centroids (read-only).
func (m *Model) Centroids() [][]float64 { return m.km.Centroids }

// LatentSSE returns the final K-means sum of squared errors over the
// training latents — the cluster-tightness metric joint training improves.
func (m *Model) LatentSSE() float64 { return m.km.SSE }

// FLOPsPerPredict estimates the compute per prediction (encoder pass plus
// the K·latent centroid scan), consumed by the energy profiler.
func (m *Model) FLOPsPerPredict() float64 {
	return m.vae.FLOPsPerPredict() + 2*float64(m.km.K)*float64(m.vae.LatentDim())
}

// Predict maps a full-width item (InputBits values in {0,1}) to its
// cluster. Items of the wrong width report ErrBadSegment; use
// PredictPadded for narrower items.
func (m *Model) Predict(item []float64) (int, error) {
	if len(item) != m.cfg.InputBits {
		return 0, fmt.Errorf("core: Predict item of %d bits, want %d (use PredictPadded): %w",
			len(item), m.cfg.InputBits, ErrBadSegment)
	}
	return m.km.Predict(m.vae.Encode(item)), nil
}

// PredictPadded maps an item of up to InputBits bits to its cluster,
// applying the configured padding strategy when the item is narrower than
// the model (§4). The padded bits are used only for this prediction. Items
// wider than InputBits report ErrBadSegment.
func (m *Model) PredictPadded(item []float64) (int, error) {
	if len(item) == m.cfg.InputBits {
		return m.Predict(item)
	}
	m.mu.Lock()
	padded, err := m.padder.PadChecked(item, m.cfg.InputBits)
	m.mu.Unlock()
	if err != nil {
		return 0, fmt.Errorf("core: %v: %w", err, ErrBadSegment)
	}
	return m.Predict(padded)
}

// PredictBytes maps a raw segment image to its cluster. It is the serving
// path (Algorithm 1 step 4): full-width images go straight through the
// bit-native inference kernel when one is available (DESIGN.md §11);
// narrower items are bit-expanded, padded (§4), packed back to bytes and
// then pushed through the kernel. All scratch is pooled, so steady-state
// calls do not allocate.
//
// lint:hotpath
func (m *Model) PredictBytes(b []byte) (int, error) {
	s, _ := m.scratch.Get().(*predictScratch)
	if s == nil {
		s = new(predictScratch) // lint:allow hotpathalloc — one scratch set per P, amortized by the pool
	}
	c, err := m.predictBytesScratched(s, b)
	m.scratch.Put(s)
	return c, err
}

// predictBytesScratched routes one raw image through the kernel (packing
// padded bits back to bytes when the item is undersized) or, when no
// kernel fits the geometry, through the float encoder.
func (m *Model) predictBytesScratched(s *predictScratch, b []byte) (int, error) {
	kern := m.kern
	if kern == nil {
		s.bits = bytesToBitsInto(s.bits, b)
		return m.predictScratched(s, s.bits)
	}
	seg := b
	if len(b)*8 != m.cfg.InputBits {
		m.mu.Lock()
		packed, err := m.padPackedLocked(s, s.packed, b)
		m.mu.Unlock()
		if err != nil {
			return 0, err
		}
		s.packed = packed
		seg = packed
	}
	s.h = growFloats(s.h, kern.HiddenDim())
	s.mu = growFloats(s.mu, kern.LatentDim())
	return kern.Predict(seg, s.h, s.mu), nil
}

// padPackedLocked pads an undersized item to the model width in packed
// byte form, writing into dst's backing array: directly in byte space
// when the padder supports it (End placement — the common configuration),
// otherwise expand, pad in bit space (§4) and pack the padded bits.
// Either way the padder RNG draws the same values in the same order, so
// the two routes produce the same image and the kernel consumes exactly
// what the float encoder would see. Callers hold m.mu.
func (m *Model) padPackedLocked(s *predictScratch, dst []byte, b []byte) ([]byte, error) {
	if m.padder.CanPadBytes() {
		packed, err := m.padder.PadBytesTo(dst, b, m.cfg.InputBits)
		if err != nil {
			return nil, fmt.Errorf("core: %v: %w", err, ErrBadSegment)
		}
		return packed, nil
	}
	s.bits = bytesToBitsInto(s.bits, b)
	padded, err := m.padder.PadCheckedTo(s.padded, s.bits, m.cfg.InputBits)
	if err != nil {
		return nil, fmt.Errorf("core: %v: %w", err, ErrBadSegment)
	}
	s.padded = padded
	return packBitsInto(dst, padded), nil
}

// packBitsInto packs a {0,1} float vector into bytes (LSB-first, matching
// bitvec's layout), reusing dst's backing array. Values threshold at 0.5
// like bitvec.FromFloats; padders emit exact 0/1 bits, so nothing is lost.
func packBitsInto(dst []byte, bits []float64) []byte {
	n := (len(bits) + 7) / 8
	if cap(dst) < n {
		dst = make([]byte, n) // lint:allow hotpathalloc — scratch grows once to the segment width
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = 0
	}
	for i, v := range bits {
		if v >= 0.5 {
			dst[i>>3] |= 1 << (uint(i) & 7)
		}
	}
	return dst
}

// predictScratched pads (when the item is narrower than the model) and
// encodes item using the buffers in s.
func (m *Model) predictScratched(s *predictScratch, item []float64) (int, error) {
	if len(item) != m.cfg.InputBits {
		m.mu.Lock()
		padded, err := m.padder.PadCheckedTo(s.padded, item, m.cfg.InputBits)
		m.mu.Unlock()
		if err != nil {
			return 0, fmt.Errorf("core: %v: %w", err, ErrBadSegment)
		}
		s.padded = padded
		item = padded
	}
	s.h = growFloats(s.h, m.vae.HiddenDim())
	s.mu = growFloats(s.mu, m.vae.LatentDim())
	return m.km.Predict(m.vae.EncodeInto(item, s.h, s.mu)), nil
}

// growFloats returns a slice of length n, reusing s's backing array when it
// is large enough.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n) // lint:allow hotpathalloc — scratch sized once per model geometry
	}
	return s[:n]
}

// MustPredictBytes is PredictBytes for callers that construct their inputs
// (experiment drivers, examples) and treat a geometry mismatch as a bug.
func (m *Model) MustPredictBytes(b []byte) int {
	c, err := m.PredictBytes(b)
	if err != nil {
		panic(err) // lint:allow nopanic — Must* convenience for driver code with self-made inputs
	}
	return c
}

// PredictBytesBlock predicts every image in imgs sequentially into out
// (len(out) must be ≥ len(imgs)), reusing one pooled scratch set across
// the block. A failed item reports -1 in its slot and processing
// continues; the returned error wraps the first failure with its index.
//
// lint:hotpath
func (m *Model) PredictBytesBlock(imgs [][]byte, out []int) error {
	idx, err := m.predictEach(imgs, out, 0)
	if err != nil {
		return fmt.Errorf("core: batch item %d: %w", idx, err)
	}
	return nil
}

// predictEach is the shared worker body of PredictBytesBlock and
// PredictBytesBatch: it runs predictBytesScratched over imgs in order with
// one pooled scratch set, marking failed items -1 and returning the
// absolute index (base+i) of the first failure, or -1.
//
// lint:hotpath
func (m *Model) predictEach(imgs [][]byte, out []int, base int) (int, error) {
	s, _ := m.scratch.Get().(*predictScratch)
	if s == nil {
		s = new(predictScratch) // lint:allow hotpathalloc — one scratch set per P, amortized by the pool
	}
	firstIdx, firstErr := -1, error(nil)
	for i, b := range imgs {
		c, err := m.predictBytesScratched(s, b)
		if err != nil {
			out[i] = -1
			if firstErr == nil {
				firstIdx, firstErr = base+i, err
			}
			continue
		}
		out[i] = c
	}
	m.scratch.Put(s)
	return firstIdx, firstErr
}

// PredictBytesBatch predicts the clusters of many segment images in
// parallel (prediction is thread-safe), preserving input order. It is the
// bulk path used when populating or rebuilding the address pool over large
// devices. Every item is attempted: a failed item reports -1 in its slot
// while the rest of the batch keeps its predictions, and the returned
// error wraps the first failure (by input order) with its index.
func (m *Model) PredictBytesBatch(imgs [][]byte) ([]int, error) {
	out := make([]int, len(imgs))
	var mu sync.Mutex
	firstIdx, firstErr := -1, error(nil)
	par.For(len(imgs), len(imgs)*m.cfg.InputBits*m.vae.HiddenDim()/8, func(lo, hi int) {
		idx, err := m.predictEach(imgs[lo:hi], out[lo:hi], lo)
		if err == nil {
			return
		}
		mu.Lock()
		if firstErr == nil || idx < firstIdx {
			firstIdx, firstErr = idx, err
		}
		mu.Unlock()
	})
	if firstErr != nil {
		return out, fmt.Errorf("core: batch item %d: %w", firstIdx, firstErr)
	}
	return out, nil
}

// Encode exposes the latent embedding of a full-width item.
func (m *Model) Encode(item []float64) []float64 { return m.vae.Encode(item) }

// Kernel returns the model's bit-native inference kernel, or nil when the
// geometry fell back to the float path. The kernel's Version identifies
// the training generation serving predictions.
func (m *Model) Kernel() *infer.Kernel { return m.kern }

// Padder returns the model's padding front-end (used by experiments to
// install memory-density callbacks).
func (m *Model) Padder() *padding.Padder {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.padder
}

// SetPadder swaps the padding front-end, letting experiments sweep padding
// strategies against one trained encoder (Figure 14).
func (m *Model) SetPadder(p *padding.Padder) {
	m.mu.Lock()
	m.padder = p
	m.mu.Unlock()
}

// BytesToBits expands raw bytes into the {0,1} float vector the model
// consumes.
func BytesToBits(b []byte) []float64 { return bitvec.FromBytes(b).Floats() }

// bytesToBitsInto is BytesToBits reusing dst's backing array (LSB-first
// within each byte, matching bitvec's layout).
func bytesToBitsInto(dst []float64, b []byte) []float64 {
	n := len(b) * 8
	if cap(dst) < n {
		dst = make([]float64, n) // lint:allow hotpathalloc — scratch grows once to the segment width
	}
	dst = dst[:n]
	for i, by := range b {
		for j := 0; j < 8; j++ {
			dst[i*8+j] = float64((by >> uint(j)) & 1)
		}
	}
	return dst
}

// BitsToBytes packs a {0,1} float vector back into bytes (thresholding at
// 0.5).
func BitsToBytes(bits []float64) []byte {
	v := bitvec.FromFloats(bits)
	out := make([]byte, len(v.Bytes()))
	copy(out, v.Bytes())
	return out
}

// ---------------------------------------------------------------------- --

// Manager holds the live model and performs background retraining with an
// atomic swap, implementing the paper's lazy-retraining policy: serving
// continues on the old model while the new one trains; once ready, the new
// model takes over.
type Manager struct {
	// wg tracks in-flight retrain goroutines so Quiesce can join them.
	wg sync.WaitGroup

	mu      sync.RWMutex
	current *Model

	retraining sync.Mutex // serializes retrains
	inFlight   bool

	// Retrains counts completed background retrains.
	retrains int
}

// NewManager wraps an initially trained model.
func NewManager(m *Model) *Manager {
	return &Manager{current: m}
}

// Current returns the live model.
func (g *Manager) Current() *Model {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.current
}

// Retrains returns the number of completed background retrains.
func (g *Manager) Retrains() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.retrains
}

// Retraining reports whether a background retrain is in flight.
func (g *Manager) Retraining() bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.inFlight
}

// RetrainAsync trains a new model on data in the background and swaps it
// in when done, invoking onDone (which may be nil) with the new model or
// the training error. At most one retrain runs at a time; a concurrent
// request returns false and is dropped.
func (g *Manager) RetrainAsync(data [][]float64, cfg Config, onDone func(*Model, error)) bool {
	g.mu.Lock()
	if g.inFlight {
		g.mu.Unlock()
		return false
	}
	g.inFlight = true
	g.mu.Unlock()

	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		m, err := Train(data, cfg)
		g.mu.Lock()
		if err == nil {
			g.current = m
			g.retrains++
		}
		g.inFlight = false
		g.mu.Unlock()
		if onDone != nil {
			onDone(m, err)
		}
	}()
	return true
}

// Quiesce blocks until every in-flight background retrain has finished
// (including its onDone callback). It does not prevent new retrains from
// starting; callers that need a hard stop should quiesce after the last
// RetrainAsync they issue.
func (g *Manager) Quiesce() {
	g.wg.Wait()
}

// RetrainSync trains and swaps synchronously (used by experiments that
// model the paper's "stop the world and retrain" Figure 16 step).
func (g *Manager) RetrainSync(data [][]float64, cfg Config) (*Model, error) {
	g.retraining.Lock()
	defer g.retraining.Unlock()
	m, err := Train(data, cfg)
	if err != nil {
		return nil, err
	}
	g.mu.Lock()
	g.current = m
	g.retrains++
	g.mu.Unlock()
	return m, nil
}
