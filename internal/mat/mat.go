// Package mat provides the small dense linear-algebra kernel used by the
// learning models (VAE, LSTM, PCA, K-means). It is deliberately minimal:
// row-major float64 matrices, matrix–vector products in both orientations,
// rank-1 updates, and the vector helpers the gradient code needs. No BLAS,
// stdlib only.
package mat

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	R, C int
	Data []float64 // len R*C, element (i,j) at Data[i*C+j]
}

// NewMatrix returns a zeroed r×c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: invalid shape %dx%d", r, c))
	}
	return &Matrix{R: r, C: c, Data: make([]float64, r*c)}
}

// NewRandom returns an r×c matrix with entries drawn from a scaled uniform
// distribution (Glorot/Xavier initialization for a layer with fanIn inputs
// and fanOut outputs).
func NewRandom(r, c int, rng *rand.Rand) *Matrix {
	m := NewMatrix(r, c)
	limit := math.Sqrt(6.0 / float64(r+c))
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * limit
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.C+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.C+j] = v }

// Row returns a view of row i (aliasing the matrix storage).
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.C : (i+1)*m.C] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.R, m.C)
	copy(c.Data, m.Data)
	return c
}

// Zero sets every element to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// MulVec computes y = M·x where x has length C; y has length R. Each
// y[i] sums its row's products in column order from +0. Four rows run
// side by side, so four independent sums share each pass over x; every
// row's own sum keeps its order, so the bits do not depend on the
// interleaving.
func (m *Matrix) MulVec(x, y []float64) {
	if len(x) != m.C || len(y) != m.R {
		panic(fmt.Sprintf("mat: MulVec shape mismatch M=%dx%d x=%d y=%d", m.R, m.C, len(x), len(y)))
	}
	i := 0
	for ; i+4 <= m.R; i += 4 {
		r0 := m.Data[i*m.C : (i+1)*m.C]
		r1 := m.Data[(i+1)*m.C : (i+2)*m.C]
		r2 := m.Data[(i+2)*m.C : (i+3)*m.C]
		r3 := m.Data[(i+3)*m.C : (i+4)*m.C]
		r0, r1, r2, r3 = r0[:len(x)], r1[:len(x)], r2[:len(x)], r3[:len(x)]
		var s0, s1, s2, s3 float64
		for j, v := range x {
			s0 += r0[j] * v
			s1 += r1[j] * v
			s2 += r2[j] * v
			s3 += r3[j] * v
		}
		y[i], y[i+1], y[i+2], y[i+3] = s0, s1, s2, s3
	}
	for ; i < m.R; i++ {
		row := m.Data[i*m.C : (i+1)*m.C]
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
}

// MulVecT computes y = Mᵀ·x where x has length R; y has length C.
func (m *Matrix) MulVecT(x, y []float64) {
	if len(x) != m.R || len(y) != m.C {
		panic(fmt.Sprintf("mat: MulVecT shape mismatch M=%dx%d x=%d y=%d", m.R, m.C, len(x), len(y)))
	}
	for j := range y {
		y[j] = 0
	}
	for i := 0; i < m.R; {
		// Four rows with nonzero weights x[i..i+3] go in one pass over y,
		// each y[j] adding their terms in row order, as four passes would.
		if i+4 <= m.R && x[i] != 0 && x[i+1] != 0 && x[i+2] != 0 && x[i+3] != 0 {
			x0, x1, x2, x3 := x[i], x[i+1], x[i+2], x[i+3]
			r0 := m.Data[i*m.C : (i+1)*m.C]
			r1 := m.Data[(i+1)*m.C : (i+2)*m.C]
			r2 := m.Data[(i+2)*m.C : (i+3)*m.C]
			r3 := m.Data[(i+3)*m.C : (i+4)*m.C]
			r0, r1, r2, r3 = r0[:len(y)], r1[:len(y)], r2[:len(y)], r3[:len(y)]
			for j, yj := range y {
				yj += r0[j] * x0
				yj += r1[j] * x1
				yj += r2[j] * x2
				yj += r3[j] * x3
				y[j] = yj
			}
			i += 4
			continue
		}
		if xi := x[i]; xi != 0 {
			row := m.Data[i*m.C : (i+1)*m.C]
			for j, v := range row {
				y[j] += v * xi
			}
		}
		i++
	}
}

// AddOuter accumulates M += scale · a⊗b (rank-1 update), with len(a) == R
// and len(b) == C. This is the gradient accumulation primitive.
func (m *Matrix) AddOuter(scale float64, a, b []float64) {
	if len(a) != m.R || len(b) != m.C {
		panic(fmt.Sprintf("mat: AddOuter shape mismatch M=%dx%d a=%d b=%d", m.R, m.C, len(a), len(b)))
	}
	for i := 0; i < m.R; i++ {
		s := scale * a[i]
		if s == 0 {
			continue
		}
		row := m.Data[i*m.C : (i+1)*m.C]
		for j := range row {
			row[j] += s * b[j]
		}
	}
}

// ------------------------------------------------------- vector helpers --

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mat: Dot length mismatch")
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// AddScaled computes dst += scale · src in place.
func AddScaled(dst []float64, scale float64, src []float64) {
	if len(dst) != len(src) {
		panic("mat: AddScaled length mismatch")
	}
	for i := range dst {
		dst[i] += scale * src[i]
	}
}

// Scale multiplies every element of v by s in place.
func Scale(v []float64, s float64) {
	for i := range v {
		v[i] *= s
	}
}

// Fill sets every element of v to x.
func Fill(v []float64, x float64) {
	for i := range v {
		v[i] = x
	}
}

// SqDist returns the squared Euclidean distance between a and b.
func SqDist(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mat: SqDist length mismatch")
	}
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 { return math.Sqrt(Dot(v, v)) }

// Mean returns the arithmetic mean of v (0 for empty input).
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// ArgMin returns the index of the smallest element (first on ties), or -1
// for empty input.
func ArgMin(v []float64) int {
	if len(v) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] < v[best] {
			best = i
		}
	}
	return best
}

// EqualWithin reports whether a and b agree to within tol, absolutely for
// small magnitudes and relatively for large ones. It is the sanctioned way
// to compare computed floats in this codebase — the floateq analyzer
// rejects ==/!= between float expressions (except against a literal 0).
func EqualWithin(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*scale
}
