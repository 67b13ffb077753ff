package kvstore

import (
	"fmt"
)

// putBatchBlock bounds how many records one PutBatch stages for blocked
// prediction before placing them, capping the staging scratch at
// putBatchBlock segment images.
const putBatchBlock = 16

// PutBatch stores len(keys) key/value pairs under a single lock
// acquisition, staging records in blocks of putBatchBlock and amortizing
// model inference through the kernel's blocked multi-sample path
// (core.Model.PredictBytesBlock). values must be index-aligned with keys;
// errs, when non-nil, must have the same length and receives each item's
// outcome (nil on success).
//
// Items apply in index order — a later duplicate key supersedes an
// earlier one exactly as sequential Puts would — and one item's failure
// does not abort the rest; the returned error is the first failure. Like
// Put, the steady-state path does not allocate.
//
// lint:hotpath
func (s *Store) PutBatch(keys []uint64, values [][]byte, errs []error) error {
	if len(values) != len(keys) || (errs != nil && len(errs) != len(keys)) {
		return fmt.Errorf("kvstore: PutBatch of %d keys, %d values, %d errs: %w",
			len(keys), len(values), len(errs), ErrBadOptions)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var firstErr error
	placed := 0
	for lo := 0; lo < len(keys); lo += putBatchBlock {
		hi := lo + putBatchBlock
		if hi > len(keys) {
			hi = len(keys)
		}
		var blockErrs []error
		if errs != nil {
			blockErrs = errs[lo:hi]
		}
		n, err := s.putBlockLocked(keys[lo:hi], values[lo:hi], blockErrs)
		placed += n
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.afterPutsLocked(placed)
	return firstErr
}

// putBlockLocked stages one block of records into the batch scratch,
// predicts their clusters in one kernel pass, then places them in index
// order, returning how many it placed. Per-item failures land in errs (when
// non-nil) as pre-constructed sentinels or placement errors; the first
// failure is returned. Callers hold s.mu.
//
// lint:hotpath
func (s *Store) putBlockLocked(keys []uint64, values [][]byte, errs []error) (int, error) {
	segSize := s.dev.SegmentSize()
	if cap(s.batchBuf) < putBatchBlock*segSize {
		s.batchBuf = make([]byte, putBatchBlock*segSize) // lint:allow hotpathalloc — staging sized once to a block of segments
		s.batchImgs = make([][]byte, putBatchBlock)      // lint:allow hotpathalloc — sized once with the staging buffer
		s.batchIdx = make([]int, putBatchBlock)          // lint:allow hotpathalloc — sized once with the staging buffer
		s.batchClusters = make([]int, putBatchBlock)     // lint:allow hotpathalloc — sized once with the staging buffer
	}
	// Stage every valid record first: each gets its sequence number in
	// index order, and each occupies its own stride of the staging buffer
	// so the blocked prediction sees all images at once.
	imgs := s.batchImgs[:putBatchBlock]
	idxs := s.batchIdx[:putBatchBlock]
	staged, placed := 0, 0
	var firstErr error
	maxValue := s.MaxValue()
	for i, key := range keys {
		if errs != nil {
			errs[i] = nil
		}
		if len(values[i]) > maxValue {
			// Sentinel, not fmt.Errorf: the hot path must not allocate
			// per item. The single-op Put keeps the size-detailed wrap.
			if errs != nil {
				errs[i] = ErrValueTooLarge
			}
			if firstErr == nil {
				firstErr = ErrValueTooLarge
			}
			continue
		}
		rec := s.batchBuf[i*segSize : i*segSize+valueHeader+len(values[i])]
		encodeRecord(rec, key, s.seq, values[i])
		s.seq++
		imgs[staged] = rec
		idxs[staged] = i
		staged++
	}
	imgs = imgs[:staged]
	idxs = idxs[:staged]

	predict := s.opts.Placement != PlaceArbitrary
	var clusters []int
	if predict && staged > 0 {
		clusters = s.batchClusters[:staged]
		// Staged records are full segment prefixes, so prediction cannot
		// see a geometry error here; failed slots (-1) are still handled
		// below for defense in depth.
		if err := s.mgr.Current().PredictBytesBlock(imgs, clusters); err != nil && firstErr == nil {
			firstErr = err
		}
	}

	for j, i := range idxs {
		rec := imgs[j]
		oldAddr := -1
		if old, ok := s.tree.Get(keys[i]); ok {
			oldAddr = int(old)
		}
		var err error
		if predict {
			if c := clusters[j]; c < 0 {
				err = ErrBadSegment
			} else {
				err = s.placeLocked(keys[i], rec, s.clampClusterLocked(c), oldAddr)
			}
		} else {
			err = s.putArbitraryLocked(keys[i], rec, oldAddr)
		}
		if err != nil {
			if errs != nil {
				errs[i] = err
			}
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		placed++
	}
	return placed, firstErr
}

// GetBatch reads len(keys) values under a single lock acquisition,
// writing value i into dsts[i]'s backing array (grown only when too
// small, like GetInto) and reporting its liveness in oks[i]. dsts and oks
// must be index-aligned with keys; errs, when non-nil, receives per-item
// read errors — a missing key is oks[i] = false with a nil error. One
// item's failure does not abort the rest; the returned error is the first
// failure. Like GetInto, the steady-state path does not allocate.
//
// lint:hotpath
func (s *Store) GetBatch(keys []uint64, dsts [][]byte, oks []bool, errs []error) error {
	if len(dsts) != len(keys) || len(oks) != len(keys) || (errs != nil && len(errs) != len(keys)) {
		return fmt.Errorf("kvstore: GetBatch of %d keys, %d dsts, %d oks, %d errs: %w",
			len(keys), len(dsts), len(oks), len(errs), ErrBadOptions)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var firstErr error
	for i, key := range keys {
		oks[i] = false
		if errs != nil {
			errs[i] = nil
		}
		if dsts[i] != nil {
			dsts[i] = dsts[i][:0]
		}
		addrV, ok := s.tree.Get(key)
		if !ok {
			continue
		}
		v, err := s.readValueLocked(int(addrV))
		if err != nil {
			if errs != nil {
				errs[i] = err
			}
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if cap(dsts[i]) < len(v) {
			dsts[i] = make([]byte, len(v)) // lint:allow hotpathalloc — grows once to the value size
		}
		dsts[i] = dsts[i][:len(v)]
		copy(dsts[i], v)
		oks[i] = true
		s.stats.Gets++
	}
	return firstErr
}
