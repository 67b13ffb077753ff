// Package infer provides a bit-native inference kernel for the serving
// path: cluster prediction straight from segment *bytes*, with no
// bytes→bits→float64 expansion and no per-bit multiply.
//
// The encoder's input is strictly binary, so the first Dense layer's
// matvec Σ_j w[i][j]·x[j] only ever adds or skips weight columns. The
// kernel exploits this by precomputing, for each group of g consecutive
// input bits, the 2^g possible partial column-sums over the hidden layer
// (table[group][value][hidden]); the first-layer forward then becomes
//
//	h = bias + Σ_groups table[group][bits(group)]
//
// — pure float64 adds indexed by the raw segment bytes. The remaining
// small layer (hidden → latent) stays a tight fused matvec over the
// kernel's own flat weight copy, and nearest-centroid search keeps a
// running best with early-exit partial distances.
//
// Numerics: the kernel is fully deterministic (same bytes → bit-identical
// μ across calls and across rebuilds from the same weights), but its
// group-wise accumulation order differs from the naive left-to-right
// matvec, so μ may differ from vae.EncodeInto by a few ulps. Cluster
// assignments are insensitive to this in practice (centroid distance gaps
// dwarf ulp noise); the equivalence suite asserts exact assignment
// agreement on random models. See DESIGN.md §11.
//
// A Kernel is immutable after New: it copies every weight, bias and
// centroid it needs, so a retrain that swaps the underlying model can
// never tear a table out from under a concurrent Forward. Each kernel
// carries a process-unique Version so callers can observe swaps.
package infer

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"

	"e2nvm/internal/nn"
)

// MaxTableBytes caps the first-layer lookup table. Group width adapts
// downward (8 → 4 → 2 → 1 bits) until the table fits; if even 1-bit
// groups (a plain column copy) exceed the budget, New declines.
const MaxTableBytes = 64 << 20

// ErrGeometry reports encoder/centroid shapes the kernel cannot serve.
var ErrGeometry = errors.New("infer: kernel geometry mismatch")

// version is the process-wide kernel generation counter. Monotonic, so
// two kernels built from different trainings never share a Version.
var version atomic.Uint64

// Kernel is an immutable byte-LUT inference engine for one trained
// encoder + centroid set. Safe for concurrent use; callers supply their
// own h/mu scratch.
type Kernel struct {
	inBits    int
	hidden    int
	latent    int
	k         int
	groupBits int // g: input bits per table group (8, 4, 2 or 1)

	// table holds the precomputed first-layer partial sums, flat:
	// row ((group<<g)|value) starts at ((group<<g)|value)*hidden.
	table []float64
	b1    []float64     // first-layer bias, len hidden
	act1  nn.Activation // first-layer activation

	w2   []float64     // second layer, row-major latent×hidden
	b2   []float64     // second-layer bias, len latent
	act2 nn.Activation // second-layer activation

	cents []float64 // centroids, flat k×latent

	ver uint64
}

// New builds a kernel from the encoder's two dense layers and the
// cluster centroids, copying all parameters. It returns (nil, nil) —
// decline, not error — when no group width fits MaxTableBytes, so
// callers keep their float fallback; it errors on incoherent shapes
// (input not byte-aligned, layer widths that do not chain, centroid
// width ≠ latent width).
func New(encH, encMu *nn.Dense, centroids [][]float64) (*Kernel, error) {
	if encH == nil || encMu == nil || len(centroids) == 0 {
		return nil, fmt.Errorf("%w: nil layer or no centroids", ErrGeometry)
	}
	inBits, hidden, latent := encH.In, encH.Out, encMu.Out
	if inBits <= 0 || inBits%8 != 0 {
		return nil, fmt.Errorf("%w: input %d bits not byte-aligned", ErrGeometry, inBits)
	}
	if encMu.In != hidden {
		return nil, fmt.Errorf("%w: trunk out %d, head in %d", ErrGeometry, hidden, encMu.In)
	}
	for _, c := range centroids {
		if len(c) != latent {
			return nil, fmt.Errorf("%w: centroid width %d, latent %d", ErrGeometry, len(c), latent)
		}
	}
	g := 0
	for _, cand := range [...]int{8, 4, 2, 1} {
		if (inBits/cand)*(1<<cand)*hidden*8 <= MaxTableBytes {
			g = cand
			break
		}
	}
	if g == 0 {
		return nil, nil
	}

	k := &Kernel{
		inBits:    inBits,
		hidden:    hidden,
		latent:    latent,
		k:         len(centroids),
		groupBits: g,
		table:     make([]float64, (inBits/g)*(1<<g)*hidden),
		b1:        append([]float64(nil), encH.B...),
		act1:      encH.Act,
		w2:        append([]float64(nil), encMu.W.Data...),
		b2:        append([]float64(nil), encMu.B...),
		act2:      encMu.Act,
		cents:     make([]float64, len(centroids)*latent),
		ver:       version.Add(1),
	}
	for c, cent := range centroids {
		copy(k.cents[c*latent:], cent)
	}
	// Build each group's 2^g rows by MSB chaining: row(v) = row(v without
	// its top set bit) + the weight column of that bit. Every row is then
	// the ascending-bit-order sum of its columns, done in 2^g adds per
	// hidden unit instead of g·2^(g-1).
	vals := 1 << g
	for grp := 0; grp < inBits/g; grp++ {
		base := grp * vals * hidden
		for v := 1; v < vals; v++ {
			msb := bits.Len(uint(v)) - 1
			prev := k.table[base+(v^(1<<msb))*hidden:][:hidden]
			row := k.table[base+v*hidden:][:hidden]
			col := msb // bit index within the group
			j := grp*g + col
			for i := 0; i < hidden; i++ {
				row[i] = prev[i] + encH.W.At(i, j)
			}
		}
	}
	return k, nil
}

// InBits returns the kernel's input width in bits.
func (k *Kernel) InBits() int { return k.inBits }

// HiddenDim returns the hidden width (the h scratch size Forward needs).
func (k *Kernel) HiddenDim() int { return k.hidden }

// LatentDim returns the latent width (the mu scratch size Forward needs).
func (k *Kernel) LatentDim() int { return k.latent }

// K returns the number of centroids.
func (k *Kernel) K() int { return k.k }

// GroupBits returns the table group width g in bits.
func (k *Kernel) GroupBits() int { return k.groupBits }

// TableBytes returns the lookup table's size in bytes.
func (k *Kernel) TableBytes() int { return len(k.table) * 8 }

// Version returns the kernel's process-unique generation number. Kernels
// built from different trainings always differ, so a caller holding a
// kernel pointer can tell whether a retrain swapped the model under it.
func (k *Kernel) Version() uint64 { return k.ver }

// Forward runs the encoder over one full-width segment image, writing the
// hidden activations into h and the latent mean into mu (both
// caller-provided scratch, capacity ≥ HiddenDim / LatentDim). It returns
// mu resliced to LatentDim. Safe for concurrent use with distinct
// scratch. Zero allocations.
//
// Bounds discipline (lint:nobce): scratch and bias slices are resliced to
// the same length expression before the loops so every indexed access is
// provable, and the second-layer matvec consumes k.w2 from the front under
// a loop condition instead of strided `i*hidden` slicing (which prove
// cannot bound). The only checks left in loops are the table-row lookups,
// whose offsets depend on the segment bytes themselves.
//
// lint:hotpath
// lint:kernelpure
// lint:nobce
func (k *Kernel) Forward(seg []byte, h, mu []float64) []float64 {
	if len(seg)*8 != k.inBits {
		panic(fmt.Sprintf("infer: Forward input %d bits, want %d", len(seg)*8, k.inBits))
	}
	hidden, latent := k.hidden, k.latent
	h = h[:hidden]
	mu = mu[:latent]
	if k.groupBits == 8 {
		// One table row per byte; seed h with the first row instead of
		// zeroing.
		copy(h, k.table[int(seg[0])*hidden:][:hidden])
		for p := 1; p < len(seg); p++ {
			row := k.table[(p<<8|int(seg[p]))*hidden:][:hidden] // lint:allow nobce — row offset is data-dependent (segment byte value)
			for i, v := range row {
				h[i] += v
			}
		}
	} else {
		g := uint(k.groupBits)
		perByte := 8 / k.groupBits
		mask := byte(1<<g - 1)
		for i := range h {
			h[i] = 0
		}
		grp := 0
		for _, by := range seg {
			for q := 0; q < perByte; q++ {
				val := int((by >> (uint(q) * g)) & mask)
				row := k.table[(grp<<g|val)*hidden:][:hidden] // lint:allow nobce — row offset is data-dependent (group bit value)
				for i, v := range row {
					h[i] += v
				}
				grp++
			}
		}
	}
	act1 := k.act1
	b1 := k.b1[:hidden]
	for i := range h {
		h[i] = act1.Apply(h[i] + b1[i])
	}
	act2 := k.act2
	b2 := k.b2[:latent]
	w2 := k.w2
	for i := 0; i < latent && len(w2) >= hidden; i++ {
		row := w2[:hidden]
		w2 = w2[hidden:]
		s := 0.0
		for j, v := range row {
			s += v * h[j]
		}
		mu[i] = act2.Apply(s + b2[i])
	}
	return mu
}

// Assign returns the index of the centroid nearest to mu (squared
// Euclidean, first wins ties — identical to a full kmeans.Predict scan).
// The per-centroid distance accumulates term by term and bails as soon as
// the running sum reaches the best seen: squared terms only grow, and the
// winner update below is strict-<, so the early exit changes nothing.
// Zero allocations.
//
// lint:hotpath
// lint:kernelpure
// lint:nobce
func (k *Kernel) Assign(mu []float64) int {
	latent := k.latent
	mu = mu[:latent]
	best, bestD := 0, math.Inf(1)
	// Walk the flat centroid matrix front-to-back: `len(cents) >= latent`
	// proves the row slice (strided `c*latent` indexing would not), and the
	// reslice above ties len(mu) to len(cent) for the inner loop.
	cents := k.cents
	for c := 0; c < k.k && len(cents) >= latent; c++ {
		cent := cents[:latent]
		cents = cents[latent:]
		d := 0.0
		for i, cv := range cent {
			diff := mu[i] - cv
			d += diff * diff
			if d >= bestD {
				break
			}
		}
		if d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// Predict maps one full-width segment image to its cluster, using h and
// mu as scratch. Zero allocations.
//
// lint:hotpath
// lint:kernelpure
func (k *Kernel) Predict(seg []byte, h, mu []float64) int {
	return k.Assign(k.Forward(seg, h, mu))
}
