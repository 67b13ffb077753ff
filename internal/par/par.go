// Package par is the fork/join helper of the model code: VAE training,
// latent encoding and bulk prediction split their loops with For, and
// nothing else in the repository starts worker goroutines for compute.
//
// For joins every goroutine it starts before it returns, so no caller
// leaves a worker behind, and it runs small jobs on the calling goroutine
// so tiny models pay no scheduling cost. The split only decides which
// goroutine computes which indices; callers keep each index's arithmetic
// independent of the split, so results do not depend on GOMAXPROCS.
package par

import (
	"runtime"
	"sync"
)

// MinWork is the smallest job, in the caller's work units (roughly one
// multiply-add each), that For spreads over goroutines. Below it a
// fork/join costs more than it saves (a goroutine start and a wake-up are
// each on the order of a microsecond; MinWork multiply-adds take tens).
const MinWork = 1 << 16

// For calls body over a partition of [0, n) into contiguous ranges
// [lo, hi), one per worker, and returns once every call has returned.
// The worker count is GOMAXPROCS, capped at n; work is the caller's
// estimate of the whole job's cost, and when it is below MinWork (or only
// one worker is available) body(0, n) runs on the calling goroutine. The
// calling goroutine always runs the first range itself. Ranges never
// overlap, so bodies that write only their own indices need no locking.
func For(n, work int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	if w <= 1 || work < MinWork {
		body(0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for k := 1; k < w; k++ {
		lo, hi := k*n/w, (k+1)*n/w
		go func() {
			defer wg.Done()
			body(lo, hi)
		}()
	}
	body(0, n/w)
	wg.Wait()
}

// Band maps the range [lo, hi) of a For over n onto a length-m axis:
// it returns [lo·m/n, hi·m/n). Adjacent ranges map to adjacent bands, so
// one For over n can hand every worker its proportional share of several
// arrays of different lengths at once.
func Band(lo, hi, n, m int) (int, int) { return lo * m / n, hi * m / n }
