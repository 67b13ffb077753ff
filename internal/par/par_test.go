package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestForCoversEachIndexOnce checks that For's ranges partition [0, n)
// for small and large jobs and n below, at and above the worker count.
func TestForCoversEachIndexOnce(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 1000} {
		for _, work := range []int{0, MinWork} {
			hits := make([]int32, n)
			For(n, work, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d work=%d: index %d visited %d times", n, work, i, h)
				}
			}
		}
	}
	For(0, MinWork, func(lo, hi int) { t.Fatal("body called for n = 0") })
}

// TestForSerialBelowMinWork checks that a small job runs as one call on
// the calling goroutine, starting nothing.
func TestForSerialBelowMinWork(t *testing.T) {
	calls := 0
	before := runtime.NumGoroutine()
	For(100, MinWork-1, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 100 || runtime.NumGoroutine() > before {
			t.Fatalf("small job split: [%d, %d), %d goroutines", lo, hi, runtime.NumGoroutine())
		}
	})
	if calls != 1 {
		t.Fatalf("%d calls, want 1", calls)
	}
}

// TestBandTilesEveryLength checks that the bands of adjacent ranges are
// adjacent and together cover [0, m).
func TestBandTilesEveryLength(t *testing.T) {
	const n = 1024
	for _, m := range []int{0, 1, 10, 1023, 1024, 2048, 100003} {
		next := 0
		for _, cut := range [][2]int{{0, 341}, {341, 682}, {682, 1024}} {
			lo, hi := Band(cut[0], cut[1], n, m)
			if lo != next || hi < lo {
				t.Fatalf("m=%d: band %v -> [%d, %d), want start %d", m, cut, lo, hi, next)
			}
			next = hi
		}
		if next != m {
			t.Fatalf("m=%d: bands end at %d", m, next)
		}
	}
}
