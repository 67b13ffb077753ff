package infer

import (
	"math"
	"math/rand"
	"testing"

	"e2nvm/internal/bitvec"
	"e2nvm/internal/mat"
	"e2nvm/internal/nn"
)

// testEncoder builds a random (Glorot-initialized) two-layer encoder and
// centroid set at the given geometry, mirroring the shapes core trains.
func testEncoder(t *testing.T, seed int64, inBits, hidden, latent, k int) (*nn.Dense, *nn.Dense, [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	encH := nn.NewDense(inBits, hidden, nn.ReLU, rng)
	encMu := nn.NewDense(hidden, latent, nn.Identity, rng)
	cents := make([][]float64, k)
	for c := range cents {
		cents[c] = make([]float64, latent)
		for i := range cents[c] {
			cents[c][i] = rng.NormFloat64()
		}
	}
	return encH, encMu, cents
}

// naivePredict is the reference path the kernel replaces: bit-expand,
// Dense forwards, full-scan nearest centroid.
func naivePredict(encH, encMu *nn.Dense, cents [][]float64, seg []byte) (int, []float64) {
	x := bitvec.FromBytes(seg).Floats()
	h := make([]float64, encH.Out)
	mu := make([]float64, encMu.Out)
	encH.Apply(x, h)
	encMu.Apply(h, mu)
	best, bestD := 0, math.Inf(1)
	for c, cent := range cents {
		if d := mat.SqDist(mu, cent); d < bestD {
			best, bestD = c, d
		}
	}
	return best, mu
}

// TestKernelMatchesNaive is the kernel-vs-naive equivalence suite: across
// random models, geometries (hitting group widths 8, 4 and 2) and random
// inputs, the kernel's cluster assignment must match vae-style
// EncodeInto + nearest-centroid exactly, and μ must agree to tight
// tolerance (bit-exactness is not promised across the two summation
// orders; see the package comment).
func TestKernelMatchesNaive(t *testing.T) {
	cases := []struct {
		name                      string
		inBits, hidden, latent, k int
		wantG                     int
	}{
		{"g8/64B", 512, 128, 10, 8, 8},
		{"g8/tiny", 32, 32, 6, 2, 8},
		{"g4/wide", 2048, 512, 10, 8, 4},
		{"g2/huge-hidden", 1024, 4096, 10, 8, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			encH, encMu, cents := testEncoder(t, 42, tc.inBits, tc.hidden, tc.latent, tc.k)
			k, err := New(encH, encMu, cents)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			if k == nil {
				t.Fatalf("New declined geometry %d×%d", tc.inBits, tc.hidden)
			}
			if k.GroupBits() != tc.wantG {
				t.Fatalf("GroupBits = %d, want %d", k.GroupBits(), tc.wantG)
			}
			rng := rand.New(rand.NewSource(7))
			h := make([]float64, k.HiddenDim())
			mu := make([]float64, k.LatentDim())
			seg := make([]byte, tc.inBits/8)
			for trial := 0; trial < 50; trial++ {
				rng.Read(seg)
				wantC, wantMu := naivePredict(encH, encMu, cents, seg)
				gotMu := k.Forward(seg, h, mu)
				for i := range gotMu {
					if !mat.EqualWithin(gotMu[i], wantMu[i], 1e-9) {
						t.Fatalf("trial %d lane %d: kernel μ %v, naive μ %v", trial, i, gotMu[i], wantMu[i])
					}
				}
				if gotC := k.Assign(gotMu); gotC != wantC {
					t.Fatalf("trial %d: kernel cluster %d, naive %d", trial, gotC, wantC)
				}
				if gotC := k.Predict(seg, h, mu); gotC != wantC {
					t.Fatalf("trial %d: Predict %d, naive %d", trial, gotC, wantC)
				}
			}
		})
	}
}

// TestKernelDeterminism: same input → bit-identical latent across calls
// AND across kernels rebuilt from the same weights.
func TestKernelDeterminism(t *testing.T) {
	encH, encMu, cents := testEncoder(t, 3, 512, 128, 10, 8)
	k1, err := New(encH, encMu, cents)
	if err != nil || k1 == nil {
		t.Fatalf("New: %v %v", k1, err)
	}
	k2, err := New(encH, encMu, cents)
	if err != nil || k2 == nil {
		t.Fatalf("New (rebuild): %v %v", k2, err)
	}
	rng := rand.New(rand.NewSource(11))
	seg := make([]byte, 64)
	h := make([]float64, k1.HiddenDim())
	mu1 := make([]float64, k1.LatentDim())
	mu2 := make([]float64, k1.LatentDim())
	for trial := 0; trial < 25; trial++ {
		rng.Read(seg)
		k1.Forward(seg, h, mu1)
		a := append([]float64(nil), mu1...)
		k1.Forward(seg, h, mu1) // same kernel, second pass
		k2.Forward(seg, h, mu2) // rebuilt kernel
		for i := range a {
			ab, rb, bb := math.Float64bits(a[i]), math.Float64bits(mu1[i]), math.Float64bits(mu2[i])
			if ab != rb || ab != bb {
				t.Fatalf("trial %d lane %d: latent bits differ across runs: %x %x %x", trial, i, ab, rb, bb)
			}
		}
	}
}

// TestAssignEarlyExit: early-exit nearest centroid must equal the full
// scan, including first-wins tie handling.
func TestAssignEarlyExit(t *testing.T) {
	latent := 6
	cents := [][]float64{
		{0, 0, 0, 0, 0, 0},
		{1, 1, 1, 1, 1, 1},
		{0, 0, 0, 0, 0, 0}, // duplicate of centroid 0: ties go to the first
		{-1, 2, 0, 1, -2, 3},
	}
	encH := nn.NewDense(8, 4, nn.ReLU, rand.New(rand.NewSource(1)))
	encMu := nn.NewDense(4, latent, nn.Identity, rand.New(rand.NewSource(2)))
	k, err := New(encH, encMu, cents)
	if err != nil || k == nil {
		t.Fatalf("New: %v %v", k, err)
	}
	rng := rand.New(rand.NewSource(13))
	mu := make([]float64, latent)
	for trial := 0; trial < 200; trial++ {
		for i := range mu {
			mu[i] = rng.NormFloat64()
		}
		best, bestD := 0, math.Inf(1)
		for c, cent := range cents {
			if d := mat.SqDist(mu, cent); d < bestD {
				best, bestD = c, d
			}
		}
		if got := k.Assign(mu); got != best {
			t.Fatalf("trial %d: Assign %d, full scan %d", trial, got, best)
		}
	}
	if got := k.Assign(make([]float64, latent)); got != 0 {
		t.Fatalf("tie broke to %d, want first centroid 0", got)
	}
}

// TestNewDecline: geometries whose smallest table exceeds the budget get
// (nil, nil) — decline, not error — so callers keep the float path.
func TestNewDecline(t *testing.T) {
	// 1-bit groups need inBits*2*hidden*8 bytes; 65536×32768 → 32 GiB.
	// The budget check is pure arithmetic, so a header-only weight matrix
	// (no Data) is enough — New must decline before touching weights.
	encH := &nn.Dense{In: 65536, Out: 32768, Act: nn.ReLU,
		W: &mat.Matrix{R: 32768, C: 65536}, B: make([]float64, 32768)}
	encMu := nn.NewDense(32768, 4, nn.Identity, rand.New(rand.NewSource(1)))
	k, err := New(encH, encMu, [][]float64{make([]float64, 4)})
	if err != nil {
		t.Fatalf("decline should not error: %v", err)
	}
	if k != nil {
		t.Fatalf("want nil kernel for over-budget geometry, got table %d bytes", k.TableBytes())
	}
}

// TestNewGeometryErrors: incoherent shapes must error, not panic later.
func TestNewGeometryErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ok := nn.NewDense(16, 8, nn.ReLU, rng)
	head := nn.NewDense(8, 4, nn.Identity, rng)
	cents := [][]float64{make([]float64, 4)}
	cases := []struct {
		name string
		h, m *nn.Dense
		c    [][]float64
	}{
		{"nil trunk", nil, head, cents},
		{"nil head", ok, nil, cents},
		{"no centroids", ok, head, nil},
		{"unaligned input", nn.NewDense(13, 8, nn.ReLU, rng), head, cents},
		{"width chain", ok, nn.NewDense(9, 4, nn.Identity, rng), cents},
		{"centroid width", ok, head, [][]float64{make([]float64, 5)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if k, err := New(tc.h, tc.m, tc.c); err == nil {
				t.Fatalf("want geometry error, got kernel %v", k)
			}
		})
	}
}

// TestVersionMonotonic: every build gets a fresh, strictly increasing
// version, so swapped kernels are always observable.
func TestVersionMonotonic(t *testing.T) {
	encH, encMu, cents := testEncoder(t, 8, 64, 16, 4, 2)
	var last uint64
	for i := 0; i < 4; i++ {
		k, err := New(encH, encMu, cents)
		if err != nil || k == nil {
			t.Fatalf("New: %v %v", k, err)
		}
		if k.Version() <= last {
			t.Fatalf("version %d not above previous %d", k.Version(), last)
		}
		last = k.Version()
	}
}

// TestForwardZeroAlloc: the kernel serving path must not allocate.
func TestForwardZeroAlloc(t *testing.T) {
	encH, encMu, cents := testEncoder(t, 21, 512, 128, 10, 8)
	k, err := New(encH, encMu, cents)
	if err != nil || k == nil {
		t.Fatalf("New: %v %v", k, err)
	}
	seg := make([]byte, 64)
	rand.New(rand.NewSource(2)).Read(seg)
	h := make([]float64, k.HiddenDim())
	mu := make([]float64, k.LatentDim())
	if n := testing.AllocsPerRun(100, func() { k.Predict(seg, h, mu) }); n != 0 {
		t.Fatalf("Predict allocates %v per op, want 0", n)
	}
}

// BenchmarkForward measures the bit-native kernel on one 64-byte segment
// (512→128→10, K=8); BenchmarkForwardNaive is the float reference path at
// the same geometry, so the pair reads as a ratio.
func BenchmarkForward(b *testing.B) {
	encH, encMu, cents := benchEncoder()
	k, err := New(encH, encMu, cents)
	if err != nil || k == nil {
		b.Fatalf("New: %v %v", k, err)
	}
	seg := make([]byte, 64)
	rand.New(rand.NewSource(2)).Read(seg)
	h := make([]float64, k.HiddenDim())
	mu := make([]float64, k.LatentDim())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Predict(seg, h, mu)
	}
}

func BenchmarkForwardNaive(b *testing.B) {
	encH, encMu, cents := benchEncoder()
	seg := make([]byte, 64)
	rand.New(rand.NewSource(2)).Read(seg)
	x := make([]float64, 512)
	h := make([]float64, 128)
	mu := make([]float64, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range x {
			x[j] = float64(seg[j>>3] >> (uint(j) & 7) & 1)
		}
		encH.Apply(x, h)
		encMu.Apply(h, mu)
		best, bestD := 0, math.Inf(1)
		for c, cent := range cents {
			if d := mat.SqDist(mu, cent); d < bestD {
				best, bestD = c, d
			}
		}
		_ = best
	}
}

func benchEncoder() (*nn.Dense, *nn.Dense, [][]float64) {
	rng := rand.New(rand.NewSource(42))
	encH := nn.NewDense(512, 128, nn.ReLU, rng)
	encMu := nn.NewDense(128, 10, nn.Identity, rng)
	cents := make([][]float64, 8)
	for c := range cents {
		cents[c] = make([]float64, 10)
		for i := range cents[c] {
			cents[c][i] = rng.NormFloat64()
		}
	}
	return encH, encMu, cents
}
