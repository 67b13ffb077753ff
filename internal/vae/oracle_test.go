package vae

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"e2nvm/internal/mat"
)

// referenceTrainBatch is the one-sample-at-a-time minibatch step: every
// sample runs forward and backward through the layers' own caches and
// accumulates into GW/GB before the next starts. The batch-phased trainer
// must reproduce it bit for bit; it is kept here as that oracle.
func (m *Model) referenceTrainBatch(batch [][]float64, centroids [][]float64) Loss {
	if len(batch) == 0 {
		return Loss{}
	}
	for _, l := range m.layers() {
		l.ZeroGrad()
	}
	var agg Loss
	scale := 1.0 / float64(len(batch))
	for _, x := range batch {
		agg = addLoss(agg, m.referenceBackprop(x, centroids, scale))
	}
	m.opt.Step()
	return scaleLoss(agg, scale)
}

// referenceBackprop runs forward+backward for one sample, accumulating
// gradients scaled by gradScale, and returns the sample's (unscaled) loss
// terms.
func (m *Model) referenceBackprop(x []float64, centroids [][]float64, gradScale float64) Loss {
	if len(x) != m.cfg.InputDim {
		panic(fmt.Sprintf("vae: train input %d, want %d", len(x), m.cfg.InputDim))
	}
	// ---- forward ----
	h1 := m.encH.Forward(x)
	mu := append([]float64(nil), m.encMu.Forward(h1)...)
	lv := append([]float64(nil), m.encLV.Forward(h1)...)
	for i := range lv {
		lv[i] = clamp(lv[i], -8, 8)
	}
	eps := make([]float64, len(mu))
	z := make([]float64, len(mu))
	for i := range z {
		eps[i] = m.rng.NormFloat64()
		z[i] = mu[i] + eps[i]*math.Exp(0.5*lv[i])
	}
	h2 := m.decH.Forward(z)
	logits := append([]float64(nil), m.decO.Forward(h2)...)

	var loss Loss
	gradLogits := make([]float64, len(logits))
	for i, l := range logits {
		xi := x[i]
		loss.Recon += bceWithLogit(l, xi)
		gradLogits[i] = (sigmoid(l) - xi) * gradScale
	}
	gradMu := make([]float64, len(mu))
	gradLV := make([]float64, len(lv))
	for i := range mu {
		loss.KL += 0.5 * (mu[i]*mu[i] + math.Exp(lv[i]) - 1 - lv[i])
		gradMu[i] = m.cfg.Beta * mu[i] * gradScale
		gradLV[i] = m.cfg.Beta * 0.5 * (math.Exp(lv[i]) - 1) * gradScale
	}
	if centroids != nil && m.cfg.Gamma > 0 {
		c := nearestCentroid(mu, centroids)
		loss.Cluster = mat.SqDist(mu, centroids[c])
		for i := range mu {
			gradMu[i] += 2 * m.cfg.Gamma * (mu[i] - centroids[c][i]) * gradScale
		}
	}
	gradZ := m.decH.Backward(m.decO.Backward(gradLogits))
	for i := range gradZ {
		gradMu[i] += gradZ[i]
		gradLV[i] += gradZ[i] * 0.5 * eps[i] * math.Exp(0.5*lv[i])
	}
	gH1 := m.encMu.Backward(gradMu)
	mat.AddScaled(gH1, 1, m.encLV.Backward(gradLV))
	m.encH.Backward(gH1)
	return loss
}

// referenceFit is Fit's epoch and minibatch loop over referenceTrainBatch.
func (m *Model) referenceFit(data [][]float64, epochs, batchSize int, centroids [][]float64) []Loss {
	idx := make([]int, len(data))
	for i := range idx {
		idx[i] = i
	}
	var losses []Loss
	for e := 0; e < epochs; e++ {
		m.rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var agg Loss
		batches := 0
		for lo := 0; lo < len(idx); lo += batchSize {
			hi := min(lo+batchSize, len(idx))
			var batch [][]float64
			for _, i := range idx[lo:hi] {
				batch = append(batch, data[i])
			}
			agg = addLoss(agg, m.referenceTrainBatch(batch, centroids))
			batches++
		}
		losses = append(losses, scaleLoss(agg, 1/float64(batches)))
	}
	return losses
}

// requireSameBits fails unless a and b hold the same float64 bit patterns.
func requireSameBits(t *testing.T, what string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: lengths %d and %d", what, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s[%d]: %v (%#x) vs reference %v (%#x)", what, i,
				a[i], math.Float64bits(a[i]), b[i], math.Float64bits(b[i]))
		}
	}
}

// requireSameState compares every weight, bias, gradient accumulator and
// Adam moment of got against want, bit for bit.
func requireSameState(t *testing.T, got, want *Model) {
	t.Helper()
	gl, wl := got.layers(), want.layers()
	for i := range gl {
		requireSameBits(t, fmt.Sprintf("layer %d W", i), gl[i].W.Data, wl[i].W.Data)
		requireSameBits(t, fmt.Sprintf("layer %d B", i), gl[i].B, wl[i].B)
		requireSameBits(t, fmt.Sprintf("layer %d GW", i), gl[i].GW.Data, wl[i].GW.Data)
		requireSameBits(t, fmt.Sprintf("layer %d GB", i), gl[i].GB, wl[i].GB)
	}
	gm, gv := got.opt.Moments()
	wm, wv := want.opt.Moments()
	for i := range gm {
		requireSameBits(t, fmt.Sprintf("Adam m[%d]", i), gm[i], wm[i])
		requireSameBits(t, fmt.Sprintf("Adam v[%d]", i), gv[i], wv[i])
	}
	if got.opt.StepCount() != want.opt.StepCount() {
		t.Fatalf("Adam steps %d vs reference %d", got.opt.StepCount(), want.opt.StepCount())
	}
}

// oracleData returns n rows of width dim: binary rows around planted
// prototypes, or — when fractional — rows where every fifth row also holds
// values strictly between 0 and 1, so batches mix the binary kernels with
// the dense fallback.
func oracleData(n, dim int, fractional bool, seed int64) [][]float64 {
	r := rand.New(rand.NewSource(seed))
	data, _ := bitClusters(r, n, 3, dim, 0.05)
	if fractional {
		for i := 0; i < n; i += 5 {
			for j := 0; j < dim; j += 7 {
				data[i][j] = r.Float64()
			}
		}
	}
	return data
}

// TestTrainerMatchesReference requires the batch-phased trainer to leave
// every weight, bias, gradient, Adam moment and loss bit-identical to the
// one-sample-at-a-time reference — on binary and fractional data, batch
// sizes 1, 7 and 32 over a 75-row set (so 7 and 32 end on a ragged
// batch), with and without the joint clustering term. The model is wide
// enough that the batch phases run on several goroutines when GOMAXPROCS
// allows; `make determinism` runs it at -cpu 1,2,4.
func TestTrainerMatchesReference(t *testing.T) {
	const dim, rows = 256, 75
	cfg := Config{InputDim: dim, HiddenDim: 32, LatentDim: 6, Beta: 0.1, Gamma: 0.5, Seed: 21}
	cr := rand.New(rand.NewSource(5))
	centroids := make([][]float64, 4)
	for c := range centroids {
		centroids[c] = make([]float64, cfg.LatentDim)
		for i := range centroids[c] {
			centroids[c][i] = cr.NormFloat64()
		}
	}
	for _, fractional := range []bool{false, true} {
		for _, bs := range []int{1, 7, 32} {
			for _, joint := range []bool{false, true} {
				name := fmt.Sprintf("fractional=%v/batch=%d/joint=%v", fractional, bs, joint)
				t.Run(name, func(t *testing.T) {
					data := oracleData(rows, dim, fractional, 3)
					var cents [][]float64
					if joint {
						cents = centroids
					}
					got, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					want, _ := New(cfg)
					hist, err := got.Fit(data, FitOptions{Epochs: 2, BatchSize: bs, Centroids: cents})
					if err != nil {
						t.Fatal(err)
					}
					wantLoss := want.referenceFit(data, 2, bs, cents)
					for e := range hist {
						g, w := hist[e].Train, wantLoss[e]
						requireSameBits(t, fmt.Sprintf("epoch %d loss", e),
							[]float64{g.Recon, g.KL, g.Cluster}, []float64{w.Recon, w.KL, w.Cluster})
					}
					requireSameState(t, got, want)

					// A direct TrainBatch call takes the same path.
					batch := data[:min(bs, rows)]
					g, w := got.TrainBatch(batch, cents), want.referenceTrainBatch(batch, cents)
					requireSameBits(t, "TrainBatch loss",
						[]float64{g.Recon, g.KL, g.Cluster}, []float64{w.Recon, w.KL, w.Cluster})
					requireSameState(t, got, want)
				})
			}
		}
	}
}

// TestEncodeAllMatchesEncode requires the parallel, binary-aware EncodeAll
// to return Encode's latents bit for bit, on binary and fractional rows.
func TestEncodeAllMatchesEncode(t *testing.T) {
	m, err := New(Config{InputDim: 256, HiddenDim: 32, LatentDim: 6, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	data := oracleData(300, 256, true, 9)
	if _, err := m.Fit(data[:64], FitOptions{Epochs: 1, BatchSize: 16}); err != nil {
		t.Fatal(err)
	}
	all := m.EncodeAll(data)
	for i, x := range data {
		requireSameBits(t, fmt.Sprintf("row %d latent", i), all[i], m.Encode(x))
	}
}

// waitGoroutines polls until runtime.NumGoroutine is back to want: a
// worker calls wg.Done before its goroutine has fully exited, so the count
// can lag the join by a moment.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after return, %d before:\n%s",
				runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFitLeavesNoGoroutine checks that Fit and EncodeAll join every
// worker they start.
func TestFitLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	m, err := New(Config{InputDim: 256, HiddenDim: 32, LatentDim: 6, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	data := oracleData(96, 256, false, 2)
	if _, err := m.Fit(data, FitOptions{Epochs: 2, BatchSize: 32}); err != nil {
		t.Fatal(err)
	}
	m.EncodeAll(data)
	waitGoroutines(t, before)
}
