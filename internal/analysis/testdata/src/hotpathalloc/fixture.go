// Package hotpathalloc is a golden fixture for the hotpathalloc analyzer:
// allocation sites are flagged in the marked root itself and — through the
// call graph — in every function the root transitively reaches.
package hotpathalloc

import "fmt"

type point struct{ x, y int }

func sink(v any) { _ = v }

// Serve is the hot-path root. The two "reaches" findings on its
// declaration line exist only because the engine follows the call edges
// Serve -> helper -> deep: neither callee carries a marker of its own.
//
// lint:hotpath
func Serve(dst []byte, n int, f func() int) (int, error) { // want "hot path hotpathalloc\.Serve reaches make allocation in hotpathalloc\.helper \(hotpathalloc\.Serve -> hotpathalloc\.helper\)" "hot path hotpathalloc\.Serve reaches new allocation in hotpathalloc\.deep \(hotpathalloc\.Serve -> hotpathalloc\.helper -> hotpathalloc\.deep\)"
	if n < 0 {
		// Cold error exit: the whole block is skipped, fmt and all.
		return 0, fmt.Errorf("hotpathalloc: negative length %d", n)
	}
	buf := make([]byte, n) // want "make allocation on hot path hotpathalloc\.Serve"
	dst = append(dst, buf...) // want "append growth allocation on hot path hotpathalloc\.Serve"
	dst = append(dst[:0], buf...) // reuse idiom: reslice destination is allowed
	s := string(buf) // want "string/\[\]byte conversion allocation on hot path hotpathalloc\.Serve"
	_ = s
	xs := []int{1, 2, 3} // want "composite-literal allocation on hot path hotpathalloc\.Serve"
	_ = xs
	p := &point{} // want "&T\{\} heap allocation on hot path hotpathalloc\.Serve"
	_ = p
	sink(n)  // want "interface boxing of int on hot path hotpathalloc\.Serve"
	_ = f()  // want "call through function value \(cannot verify allocation-free\) on hot path hotpathalloc\.Serve"
	scratch := make([]byte, 8) // lint:allow hotpathalloc — demonstration of the site escape
	_ = scratch
	return helper(n) + len(dst), nil
}

// helper allocates, but is never flagged at its own position: the finding
// is attributed to the root that reaches it.
func helper(n int) int {
	buf := make([]int, n)
	return len(buf) + deep()
}

func deep() int {
	q := new(int)
	return *q
}

// Kernel carries only the kernel marker: it is a root all the same.
//
// lint:kernelpure
func Kernel(n int) int {
	return len(make([]int, n)) // want "make allocation on hot path hotpathalloc\.Kernel"
}

// Trim prunes its only call edge, declaring Cold a cold branch.
//
// lint:hotpath
func Trim() int {
	return len(Cold()) // lint:allow hotpathalloc — cold branch, pruned edge
}

// Cold allocates freely: its only caller pruned the edge, so it is
// unreachable from every root.
func Cold() []int {
	return make([]int, 4)
}

// Unreached allocates freely: no root reaches it at all.
func Unreached() []int {
	return make([]int, 64)
}
