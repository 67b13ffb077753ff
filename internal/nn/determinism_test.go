package nn

import (
	"math"
	"math/rand"
	"testing"
)

// trainSteps initializes a layer from seed, runs a few Adam steps on a
// fixed input, and returns the resulting weights.
func trainSteps(seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	d := NewDense(8, 4, Sigmoid, rng)
	opt := NewAdam(0.01)
	opt.Register(d.Params()...)
	x := make([]float64, 8)
	for i := range x {
		x[i] = float64(i%2) - 0.5
	}
	for step := 0; step < 5; step++ {
		y := d.Forward(x)
		grad := make([]float64, len(y))
		for i := range grad {
			grad[i] = y[i] - 0.5
		}
		d.ZeroGrad()
		d.Backward(grad)
		opt.Step()
	}
	return append([]float64(nil), d.W.Data...)
}

// TestDenseSameSeedBitIdentical asserts that the injected-*rand.Rand
// initialization plus training is fully deterministic: two same-seed runs
// end with bit-identical weights (math.Float64bits).
func TestDenseSameSeedBitIdentical(t *testing.T) {
	w1 := trainSteps(11)
	w2 := trainSteps(11)
	for i := range w1 {
		if math.Float64bits(w1[i]) != math.Float64bits(w2[i]) {
			t.Fatalf("weight %d diverged: %v vs %v", i, w1[i], w2[i])
		}
	}
	// Different seeds must actually change the initialization, otherwise
	// the identity above is vacuous.
	w3 := trainSteps(12)
	same := true
	for i := range w1 {
		if math.Float64bits(w1[i]) != math.Float64bits(w3[i]) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical weights")
	}
}

// TestAdamStepMatchesSerialLoop requires the split Adam update to give the
// bits of one serial pass over every element, on tensors large enough to
// be split across goroutines (`make determinism` runs it at -cpu 1,2,4)
// and of lengths that do not divide evenly.
func TestAdamStepMatchesSerialLoop(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	sizes := []int{10007, 13, 20000, 1}
	opt := NewAdam(0.01)
	var ws, gs, mref, vref [][]float64
	for _, n := range sizes {
		w, g := make([]float64, n), make([]float64, n)
		for i := range w {
			w[i] = r.NormFloat64()
		}
		opt.Register(Param{W: w, G: g})
		ws, gs = append(ws, w), append(gs, g)
		mref, vref = append(mref, make([]float64, n)), append(vref, make([]float64, n))
	}
	wref := make([][]float64, len(ws))
	for i, w := range ws {
		wref[i] = append([]float64(nil), w...)
	}
	for step := 1; step <= 3; step++ {
		for _, g := range gs {
			for i := range g {
				g[i] = r.NormFloat64()
			}
		}
		opt.Step()
		c1 := 1 - math.Pow(opt.Beta1, float64(step))
		c2 := 1 - math.Pow(opt.Beta2, float64(step))
		for pi, w := range wref {
			m, v, g := mref[pi], vref[pi], gs[pi]
			for i := range w {
				m[i] = opt.Beta1*m[i] + (1-opt.Beta1)*g[i]
				v[i] = opt.Beta2*v[i] + (1-opt.Beta2)*g[i]*g[i]
				mh := m[i] / c1
				vh := v[i] / c2
				w[i] -= opt.LR * mh / (math.Sqrt(vh) + opt.Epsilon)
			}
		}
	}
	gotM, gotV := opt.Moments()
	for pi := range ws {
		for i := range ws[pi] {
			if math.Float64bits(ws[pi][i]) != math.Float64bits(wref[pi][i]) ||
				math.Float64bits(gotM[pi][i]) != math.Float64bits(mref[pi][i]) ||
				math.Float64bits(gotV[pi][i]) != math.Float64bits(vref[pi][i]) {
				t.Fatalf("tensor %d element %d: w/m/v %v/%v/%v, serial %v/%v/%v", pi, i,
					ws[pi][i], gotM[pi][i], gotV[pi][i], wref[pi][i], mref[pi][i], vref[pi][i])
			}
		}
	}
}
