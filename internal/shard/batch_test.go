package shard

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"e2nvm/internal/kvstore"
	"e2nvm/internal/testutil"
)

// TestPutBatchGetBatchRoundTrip: the fan-out must deliver every item to
// its shard and scatter results back in caller order, across shard
// counts (1 exercises the delegation fast path).
func TestPutBatchGetBatchRoundTrip(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			r := newRouter(t, shards, 32, 64, kvstore.Options{})
			n := 24
			keys := make([]uint64, n)
			vals := make([][]byte, n)
			for i := range keys {
				keys[i] = uint64(i * 13)
				vals[i] = []byte(fmt.Sprintf("v-%02d", i))
			}
			if err := r.PutBatch(keys, vals, nil); err != nil {
				t.Fatalf("PutBatch: %v", err)
			}
			dsts := make([][]byte, n)
			oks := make([]bool, n)
			if err := r.GetBatch(keys, dsts, oks, nil); err != nil {
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
			if err := r.GetBatch(mixed, mdsts, moks, nil); err != nil {
				t.Fatalf("GetBatch mixed: %v", err)
			}
			if !moks[0] || moks[1] || !moks[2] {
				t.Fatalf("mixed oks = %v, want [true false true]", moks)
			}
		})
	}
}

// TestPutBatchMatchesPerItemPuts: batched routing must place every item
// in the same shard the per-item path would.
func TestPutBatchMatchesPerItemPuts(t *testing.T) {
	batched := newRouter(t, 3, 32, 64, kvstore.Options{})
	perItem := newRouter(t, 3, 32, 64, kvstore.Options{})
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
	for sh := 0; sh < batched.N(); sh++ {
		if b, p := batched.Serving(sh).Len(), perItem.Serving(sh).Len(); b != p {
			t.Fatalf("shard %d: batched holds %d keys, per-item %d", sh, b, p)
		}
	}
}

// TestPutBatchPerItemErrors: a failing item must surface under its caller
// index after the scatter back, and the returned error must be the first
// failure by caller order even though shards run out of order.
func TestPutBatchPerItemErrors(t *testing.T) {
	r := newRouter(t, 4, 32, 64, kvstore.Options{})
	maxValue := r.Serving(0).MaxValue()
	n := 12
	keys := make([]uint64, n)
	vals := make([][]byte, n)
	for i := range keys {
		keys[i] = uint64(i)
		vals[i] = []byte("fine")
	}
	vals[5] = make([]byte, maxValue+1)
	vals[9] = make([]byte, maxValue+1)
	errs := make([]error, n)
	err := r.PutBatch(keys, vals, errs)
	if !errors.Is(err, kvstore.ErrValueTooLarge) {
		t.Fatalf("PutBatch error = %v, want ErrValueTooLarge", err)
	}
	for i := range errs {
		switch i {
		case 5, 9:
			if !errors.Is(errs[i], kvstore.ErrValueTooLarge) {
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
// any routing.
func TestBatchLengthMismatch(t *testing.T) {
	r := newRouter(t, 2, 32, 64, kvstore.Options{})
	if err := r.PutBatch([]uint64{1, 2}, make([][]byte, 1), nil); !errors.Is(err, ErrBadBatch) {
		t.Fatalf("PutBatch mismatch = %v, want ErrBadBatch", err)
	}
	if err := r.GetBatch([]uint64{1}, make([][]byte, 1), make([]bool, 2), nil); !errors.Is(err, ErrBadBatch) {
		t.Fatalf("GetBatch mismatch = %v, want ErrBadBatch", err)
	}
}

// TestRouterBatchZeroAlloc: the fan-out's grouping scratch is pooled, so
// steady-state batches must not allocate beyond the per-shard paths
// (which are themselves 0-alloc).
func TestRouterBatchZeroAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race-mode sync.Pool drops Puts, so the pooled batch scratch allocates by design")
	}
	r := newRouter(t, 4, 32, 128, kvstore.Options{})
	n := 16
	keys := make([]uint64, n)
	vals := make([][]byte, n)
	for i := range keys {
		keys[i] = uint64(i * 3)
		vals[i] = []byte("steady-val")
	}
	dsts := make([][]byte, n)
	oks := make([]bool, n)
	if err := r.PutBatch(keys, vals, nil); err != nil { // warm all scratch
		t.Fatal(err)
	}
	if err := r.GetBatch(keys, dsts, oks, nil); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(50, func() {
		if err := r.PutBatch(keys, vals, nil); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("PutBatch allocates %v per batch, want 0", a)
	}
	if a := testing.AllocsPerRun(50, func() {
		if err := r.GetBatch(keys, dsts, oks, nil); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("GetBatch allocates %v per batch, want 0", a)
	}
}
