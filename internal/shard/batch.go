package shard

import (
	"errors"
	"sync"
)

// ErrBadBatch reports batch slices whose lengths do not line up.
var ErrBadBatch = errors.New("shard: batch slice lengths differ")

// batchScratch holds one batch fan-out's grouping buffers: the items
// reordered shard-contiguously (counting sort by shard), the scatter map
// back to caller order, and per-item result staging.
type batchScratch struct {
	keys []uint64
	vals [][]byte
	dsts [][]byte
	oks  []bool
	errs []error
	pos  []int // pos[slot] = caller index staged at contiguous slot
	off  []int // per-shard slot offsets, len N+1
}

// batchPool recycles batchScratch values across batches so the fan-out
// adds no steady-state allocations on top of the per-shard batch paths.
var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

func growU64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n) // lint:allow hotpathalloc — scratch grows once to the largest batch
	}
	return s[:n]
}

func growByteSlices(s [][]byte, n int) [][]byte {
	if cap(s) < n {
		return make([][]byte, n) // lint:allow hotpathalloc — scratch grows once to the largest batch
	}
	return s[:n]
}

func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n) // lint:allow hotpathalloc — scratch grows once to the largest batch
	}
	return s[:n]
}

func growErrs(s []error, n int) []error {
	if cap(s) < n {
		return make([]error, n) // lint:allow hotpathalloc — scratch grows once to the largest batch
	}
	return s[:n]
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n) // lint:allow hotpathalloc — scratch grows once to the largest batch
	}
	return s[:n]
}

// groupByShard counting-sorts the keys into shard-contiguous slots of b:
// after it returns, shard sh owns slots [start(sh), b.off[sh]) where
// start(0) = 0 and start(sh) = b.off[sh-1], and b.pos maps each slot back
// to its caller index. Zero steady-state allocations.
//
// lint:hotpath
func (r *Router) groupByShard(b *batchScratch, keys []uint64) {
	n, shards := len(keys), len(r.shards)
	b.off = growInts(b.off, shards+1)
	for i := range b.off {
		b.off[i] = 0
	}
	for _, k := range keys {
		b.off[r.Of(k)+1]++
	}
	for sh := 0; sh < shards; sh++ {
		b.off[sh+1] += b.off[sh]
	}
	b.keys = growU64(b.keys, n)
	b.pos = growInts(b.pos, n)
	// Fill using b.off[sh] as shard sh's cursor; afterwards b.off[sh] has
	// advanced by count(sh), i.e. it holds end(sh) = start(sh+1).
	for i, k := range keys {
		sh := r.Of(k)
		slot := b.off[sh]
		b.off[sh]++
		b.keys[slot] = k
		b.pos[slot] = i
	}
}

// release clears the scratch's caller-data references (so the pool never
// pins values or buffers across batches) and returns it to the pool.
func (b *batchScratch) release(n int) {
	for i := 0; i < n && i < len(b.vals); i++ {
		b.vals[i] = nil
	}
	for i := 0; i < n && i < len(b.dsts); i++ {
		b.dsts[i] = nil
	}
	for i := 0; i < n && i < len(b.errs); i++ {
		b.errs[i] = nil
	}
	batchPool.Put(b)
}

// PutBatch routes a batch of writes, grouping items per shard so each
// shard's store is entered exactly once per batch (one lock acquisition
// per shard), and within each shard inference runs on the kernel's
// blocked multi-sample path. Per-item outcomes land in errs (when
// non-nil) in caller order; items apply in caller order within each
// shard, and the returned error is the first per-item failure by caller
// index. Zero steady-state allocations on top of the per-shard path.
//
// lint:hotpath
func (r *Router) PutBatch(keys []uint64, values [][]byte, errs []error) error {
	if len(values) != len(keys) || (errs != nil && len(errs) != len(keys)) {
		return ErrBadBatch
	}
	if len(r.shards) == 1 {
		return r.shards[0].PutBatch(keys, values, errs)
	}
	n := len(keys)
	b := batchPool.Get().(*batchScratch)
	r.groupByShard(b, keys)
	b.vals = growByteSlices(b.vals, n)
	b.errs = growErrs(b.errs, n)
	for slot, i := range b.pos[:n] {
		b.vals[slot] = values[i]
	}
	start := 0
	for sh := range r.shards {
		end := b.off[sh]
		if end > start {
			// Per-item outcomes land in b.errs; the per-shard return value
			// is redundant with them, so the caller-order scan below
			// rebuilds the first failure.
			_ = r.shards[sh].PutBatch(b.keys[start:end], b.vals[start:end], b.errs[start:end])
		}
		start = end
	}
	firstIdx, firstErr := -1, error(nil)
	for slot := 0; slot < n; slot++ {
		if e := b.errs[slot]; e != nil {
			if i := b.pos[slot]; firstIdx < 0 || i < firstIdx {
				firstIdx, firstErr = i, e
			}
		}
		if errs != nil {
			errs[b.pos[slot]] = b.errs[slot]
		}
	}
	b.release(n)
	return firstErr
}

// GetBatch routes a batch of reads, grouping keys per shard so each
// shard's store is entered exactly once per batch. Value i lands in
// dsts[i]'s backing array (grown only when too small) with liveness in
// oks[i]; errs, when non-nil, receives per-item read errors. The returned
// error is the first per-item failure by caller index. Zero steady-state
// allocations on top of the per-shard path.
//
// lint:hotpath
func (r *Router) GetBatch(keys []uint64, dsts [][]byte, oks []bool, errs []error) error {
	if len(dsts) != len(keys) || len(oks) != len(keys) || (errs != nil && len(errs) != len(keys)) {
		return ErrBadBatch
	}
	if len(r.shards) == 1 {
		return r.shards[0].GetBatch(keys, dsts, oks, errs)
	}
	n := len(keys)
	b := batchPool.Get().(*batchScratch)
	r.groupByShard(b, keys)
	b.dsts = growByteSlices(b.dsts, n)
	b.oks = growBools(b.oks, n)
	b.errs = growErrs(b.errs, n)
	for slot, i := range b.pos[:n] {
		b.dsts[slot] = dsts[i] // carry caller buffers through so they get reused
	}
	start := 0
	for sh := range r.shards {
		end := b.off[sh]
		if end > start {
			_ = r.shards[sh].GetBatch(b.keys[start:end], b.dsts[start:end], b.oks[start:end], b.errs[start:end])
		}
		start = end
	}
	firstIdx, firstErr := -1, error(nil)
	for slot := 0; slot < n; slot++ {
		i := b.pos[slot]
		dsts[i] = b.dsts[slot]
		oks[i] = b.oks[slot]
		if e := b.errs[slot]; e != nil {
			if firstIdx < 0 || i < firstIdx {
				firstIdx, firstErr = i, e
			}
		}
		if errs != nil {
			errs[i] = b.errs[slot]
		}
	}
	b.release(n)
	return firstErr
}
