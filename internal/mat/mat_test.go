package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewMatrixZeroed(t *testing.T) {
	m := NewMatrix(2, 3)
	if m.R != 2 || m.C != 3 || len(m.Data) != 6 {
		t.Fatalf("bad shape: %dx%d len %d", m.R, m.C, len(m.Data))
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("matrix not zeroed")
		}
	}
}

func TestNewMatrixNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMatrix(-1, 2)
}

func TestAtSetRow(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(1, 0, 5)
	if m.At(1, 0) != 5 {
		t.Fatal("At/Set mismatch")
	}
	row := m.Row(1)
	row[1] = 7 // Row aliases storage
	if m.At(1, 1) != 7 {
		t.Fatal("Row does not alias")
	}
}

func TestMulVec(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	y := make([]float64, 2)
	m.MulVec([]float64{1, 0, -1}, y)
	if y[0] != -2 || y[1] != -2 {
		t.Fatalf("MulVec = %v, want [-2 -2]", y)
	}
}

func TestMulVecT(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	y := make([]float64, 3)
	m.MulVecT([]float64{1, 1}, y)
	want := []float64{5, 7, 9}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("MulVecT = %v, want %v", y, want)
		}
	}
}

func TestMulVecShapePanics(t *testing.T) {
	m := NewMatrix(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.MulVec(make([]float64, 2), make([]float64, 2))
}

func TestAddOuter(t *testing.T) {
	m := NewMatrix(2, 2)
	m.AddOuter(2, []float64{1, 3}, []float64{4, 5})
	want := []float64{8, 10, 24, 30}
	for i, w := range want {
		if m.Data[i] != w {
			t.Fatalf("AddOuter = %v, want %v", m.Data, want)
		}
	}
}

// Property: ⟨M·x, y⟩ == ⟨x, Mᵀ·y⟩ (adjoint identity) — the identity the
// backprop code relies on.
func TestAdjointIdentity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, cols := r.Intn(6)+1, r.Intn(6)+1
		m := NewRandom(rows, cols, r)
		x := randVec(r, cols)
		y := randVec(r, rows)
		mx := make([]float64, rows)
		m.MulVec(x, mx)
		mty := make([]float64, cols)
		m.MulVecT(y, mty)
		return math.Abs(Dot(mx, y)-Dot(x, mty)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func randVec(r *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	return v
}

func TestCloneAndZero(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	m := NewRandom(3, 3, r)
	c := m.Clone()
	m.Zero()
	if Dot(c.Data, c.Data) == 0 {
		t.Fatal("clone was zeroed with original")
	}
	if Dot(m.Data, m.Data) != 0 {
		t.Fatal("Zero did not zero")
	}
}

func TestNewRandomRange(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	m := NewRandom(10, 10, r)
	limit := math.Sqrt(6.0 / 20.0)
	for _, v := range m.Data {
		if v < -limit || v > limit {
			t.Fatalf("init value %v outside Glorot limit %v", v, limit)
		}
	}
}

func TestVectorHelpers(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if Dot(a, b) != 32 {
		t.Fatalf("Dot = %v", Dot(a, b))
	}
	c := append([]float64(nil), a...)
	AddScaled(c, 2, b)
	if c[0] != 9 || c[2] != 15 {
		t.Fatalf("AddScaled = %v", c)
	}
	Scale(c, 0)
	if Norm2(c) != 0 {
		t.Fatal("Scale(0) should zero")
	}
	Fill(c, 3)
	if Mean(c) != 3 {
		t.Fatalf("Mean = %v", Mean(c))
	}
	if SqDist(a, b) != 27 {
		t.Fatalf("SqDist = %v", SqDist(a, b))
	}
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) should be 0")
	}
}

func TestArgMin(t *testing.T) {
	if ArgMin(nil) != -1 {
		t.Fatal("ArgMin(nil) != -1")
	}
	if ArgMin([]float64{3, 1, 2, 1}) != 1 {
		t.Fatal("ArgMin should return first minimum")
	}
}

func BenchmarkMulVec256(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	m := NewRandom(256, 256, r)
	x := randVec(r, 256)
	y := make([]float64, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.MulVec(x, y)
	}
}

func TestEqualWithin(t *testing.T) {
	cases := []struct {
		a, b, tol float64
		want      bool
	}{
		{1.0, 1.0, 1e-9, true},
		{1.0, 1.0 + 1e-12, 1e-9, true},         // absolute tolerance
		{1e12, 1e12 * (1 + 1e-12), 1e-9, true}, // relative tolerance at scale
		{1.0, 1.1, 1e-9, false},
		{0, 1e-12, 1e-9, true},
		{math.NaN(), math.NaN(), 1e-9, false},
		{math.NaN(), 1, 1e-9, false},
	}
	for _, c := range cases {
		if got := EqualWithin(c.a, c.b, c.tol); got != c.want {
			t.Errorf("EqualWithin(%v, %v, %v) = %v, want %v", c.a, c.b, c.tol, got, c.want)
		}
	}
}

// TestInterleavedProductsMatchRowLoops requires MulVec and MulVecT, which
// run four rows side by side, to give the bits of the plain one-row-at-a-
// time loops: row counts that are and are not multiples of four, and x
// with zeros (which MulVecT skips) between nonzero runs.
func TestInterleavedProductsMatchRowLoops(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, shape := range [][2]int{{1, 5}, {4, 3}, {7, 9}, {64, 33}, {130, 17}} {
		m := NewRandom(shape[0], shape[1], r)
		x := make([]float64, m.C)
		xt := make([]float64, m.R)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		for i := range xt {
			if r.Intn(5) > 0 {
				xt[i] = r.NormFloat64()
			}
		}
		y := make([]float64, m.R)
		m.MulVec(x, y)
		for i := 0; i < m.R; i++ {
			s := 0.0
			for j, v := range m.Row(i) {
				s += v * x[j]
			}
			if math.Float64bits(s) != math.Float64bits(y[i]) {
				t.Fatalf("%v MulVec row %d: %v, row loop %v", shape, i, y[i], s)
			}
		}
		yt := make([]float64, m.C)
		m.MulVecT(xt, yt)
		want := make([]float64, m.C)
		for i := 0; i < m.R; i++ {
			if xt[i] == 0 {
				continue
			}
			for j, v := range m.Row(i) {
				want[j] += v * xt[i]
			}
		}
		for j := range want {
			if math.Float64bits(want[j]) != math.Float64bits(yt[j]) {
				t.Fatalf("%v MulVecT col %d: %v, row loop %v", shape, j, yt[j], want[j])
			}
		}
	}
}
