package shard_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"e2nvm"
	"e2nvm/internal/testutil"
)

// A batch enters the engine only through the facade, which loops over the
// router's Put/GetInto. These tests hold the router to the batch contract
// across shard counts.

// openSharded opens an unreplicated facade store over n shards of
// segsPerShard segments each.
func openSharded(t *testing.T, n, segsPerShard int) *e2nvm.Store {
	t.Helper()
	s, err := e2nvm.Open(e2nvm.Config{
		SegmentSize: 32,
		NumSegments: n * segsPerShard,
		Shards:      n,
		Clusters:    3,
		TrainEpochs: 4,
		LatentDim:   4,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestPutBatchGetBatchRoundTrip: a batch must deliver every item to its
// shard and answer reads in caller order, across shard counts.
func TestPutBatchGetBatchRoundTrip(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s := openSharded(t, shards, 64)
			n := 24
			keys := make([]uint64, n)
			vals := make([][]byte, n)
			for i := range keys {
				keys[i] = uint64(i * 13)
				vals[i] = []byte(fmt.Sprintf("v-%02d", i))
			}
			if err := s.PutBatch(keys, vals, nil); err != nil {
				t.Fatalf("PutBatch: %v", err)
			}
			dsts := make([][]byte, n)
			oks := make([]bool, n)
			if err := s.GetBatch(keys, dsts, oks, nil); err != nil {
				t.Fatalf("GetBatch: %v", err)
			}
			for i := range keys {
				if !oks[i] {
					t.Fatalf("key %d not found", keys[i])
				}
				if !bytes.Equal(dsts[i], vals[i]) {
					t.Fatalf("key %d: got %q, want %q", keys[i], dsts[i], vals[i])
				}
			}
			// Misses stay misses, interleaved with hits, in caller order.
			mixed := []uint64{keys[3], 99999, keys[7]}
			mdsts := make([][]byte, 3)
			moks := make([]bool, 3)
			if err := s.GetBatch(mixed, mdsts, moks, nil); err != nil {
				t.Fatalf("GetBatch mixed: %v", err)
			}
			if !moks[0] || moks[1] || !moks[2] {
				t.Fatalf("mixed oks = %v, want [true false true]", moks)
			}
			if !bytes.Equal(mdsts[0], vals[3]) || !bytes.Equal(mdsts[2], vals[7]) {
				t.Fatalf("mixed values = %q, %q, want %q, %q", mdsts[0], mdsts[2], vals[3], vals[7])
			}
		})
	}
}

// TestPutBatchMatchesPerItemPuts: a batch must route every item to the
// shard the per-item path would, leaving each shard's device in the same
// state.
func TestPutBatchMatchesPerItemPuts(t *testing.T) {
	batched := openSharded(t, 3, 64)
	perItem := openSharded(t, 3, 64)
	n := 30
	keys := make([]uint64, n)
	vals := make([][]byte, n)
	for i := range keys {
		keys[i] = uint64(i)
		vals[i] = []byte(fmt.Sprintf("x-%02d", i))
	}
	if err := batched.PutBatch(keys, vals, nil); err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	for i := range keys {
		if err := perItem.Put(keys[i], vals[i]); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	b, p := batched.ShardMetrics(), perItem.ShardMetrics()
	for sh := range b {
		if b[sh] != p[sh] {
			t.Fatalf("shard %d differs:\nbatched  %+v\nper-item %+v", sh, b[sh], p[sh])
		}
	}
	if batched.Len() != perItem.Len() {
		t.Fatalf("Len: batched %d, per-item %d", batched.Len(), perItem.Len())
	}
}

// TestPutBatchPerItemErrors: a failing item must surface under its caller
// index, and the returned error must be the first failure by caller order.
func TestPutBatchPerItemErrors(t *testing.T) {
	s := openSharded(t, 4, 64)
	n := 12
	keys := make([]uint64, n)
	vals := make([][]byte, n)
	for i := range keys {
		keys[i] = uint64(i)
		vals[i] = []byte("fine")
	}
	vals[5] = make([]byte, s.MaxValue()+1)
	vals[9] = make([]byte, s.MaxValue()+2)
	errs := make([]error, n)
	err := s.PutBatch(keys, vals, errs)
	if !errors.Is(err, e2nvm.ErrValueTooLarge) {
		t.Fatalf("PutBatch error = %v, want ErrValueTooLarge", err)
	}
	if err != errs[5] {
		t.Fatalf("PutBatch returned %v, want the first failure by index %v", err, errs[5])
	}
	for i := range errs {
		switch i {
		case 5, 9:
			if !errors.Is(errs[i], e2nvm.ErrValueTooLarge) {
				t.Fatalf("errs[%d] = %v, want ErrValueTooLarge", i, errs[i])
			}
		default:
			if errs[i] != nil {
				t.Fatalf("errs[%d] = %v, want nil", i, errs[i])
			}
		}
	}
}

// TestBatchLengthMismatch: misaligned batch slices are rejected before
// any item reaches a shard.
func TestBatchLengthMismatch(t *testing.T) {
	s := openSharded(t, 2, 64)
	if err := s.PutBatch([]uint64{1, 2}, make([][]byte, 1), nil); !errors.Is(err, e2nvm.ErrBadBatch) {
		t.Fatalf("PutBatch mismatch = %v, want ErrBadBatch", err)
	}
	if err := s.GetBatch([]uint64{1}, make([][]byte, 1), make([]bool, 2), nil); !errors.Is(err, e2nvm.ErrBadBatch) {
		t.Fatalf("GetBatch mismatch = %v, want ErrBadBatch", err)
	}
	if m := s.Metrics(); m.Writes != 0 || m.Reads != 0 {
		t.Fatalf("a refused batch reached a shard: Writes = %d, Reads = %d", m.Writes, m.Reads)
	}
}

// TestRouterBatchZeroAlloc: steady-state batches over several shards must
// not allocate beyond the per-shard paths (which are themselves 0-alloc).
func TestRouterBatchZeroAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race-mode sync.Pool drops Puts, so the pooled predict scratch allocates by design")
	}
	s := openSharded(t, 4, 128)
	n := 16
	keys := make([]uint64, n)
	vals := make([][]byte, n)
	for i := range keys {
		keys[i] = uint64(i * 3)
		vals[i] = []byte("steady-val")
	}
	dsts := make([][]byte, n)
	oks := make([]bool, n)
	if err := s.PutBatch(keys, vals, nil); err != nil { // warm all scratch
		t.Fatal(err)
	}
	if err := s.GetBatch(keys, dsts, oks, nil); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(50, func() {
		if err := s.PutBatch(keys, vals, nil); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("PutBatch allocates %v per batch, want 0", a)
	}
	if a := testing.AllocsPerRun(50, func() {
		if err := s.GetBatch(keys, dsts, oks, nil); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("GetBatch allocates %v per batch, want 0", a)
	}
}
