// Package kernelpure is a golden fixture for the kernelpure analyzer:
// purity violations are flagged in the marked kernel itself and — through
// the call graph — in every function it transitively reaches.
package kernelpure

// table is package-level state the kernel must not touch.
var table = map[int]float64{}

// hits is a package-level counter.
var hits int

// Classify is the kernel root. The "reaches" finding on its declaration
// line is the inter-procedural positive: the map iteration hides two call
// hops away, in lookup.
//
// lint:kernelpure
func Classify(xs []float64, k int) int { // want "kernel kernelpure\.Classify reaches map iteration \(randomized order breaks determinism\) in kernelpure\.lookup \(kernelpure\.Classify -> kernelpure\.score -> kernelpure\.lookup\)"
	hits++ // want "package-level state write \(to hits\) on kernel kernelpure\.Classify"
	best := 0
	for i := range xs {
		if xs[i] == 0.5 { // float equality is floateq's finding, not this analyzer's
			continue
		}
		if score(xs[i]) > score(xs[best]) {
			best = i
		}
	}
	for range table { // want "map iteration \(randomized order breaks determinism\) on kernel kernelpure\.Classify"
		best++
	}
	buf := make([]float64, k) // allocation is hotpathalloc's finding, not this analyzer's
	_ = buf
	return best % k
}

// score is clean itself but forwards into lookup.
func score(x float64) float64 {
	return lookup(int(x * 16))
}

// lookup iterates a map; the finding lands on the root that reaches it.
func lookup(i int) float64 {
	for k, v := range table {
		if k == i {
			return v
		}
	}
	return 0
}

// Pure is a clean kernel: ordered float comparisons, locals only, fixed
// iteration order. Negative.
//
// lint:kernelpure
func Pure(xs []float64) float64 {
	best := xs[0]
	for i := 1; i < len(xs); i++ {
		if xs[i] > best {
			best = xs[i]
		}
	}
	return best
}

// Tolerated documents the escape: an allowed global write.
//
// lint:kernelpure
func Tolerated() {
	hits = 0 // lint:allow kernelpure — reset is single-threaded setup, not kernel state
}
