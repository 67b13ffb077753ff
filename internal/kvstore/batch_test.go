package kvstore_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"e2nvm"
	"e2nvm/internal/testutil"
)

// A batch enters the engine only through the facade, which loops over the
// store's Put/GetInto. These tests hold one kvstore.Store (a one-shard,
// unreplicated facade) to the batch contract.

// openFacade opens a one-shard facade store over numSegs segments.
func openFacade(t *testing.T, numSegs int) *e2nvm.Store {
	t.Helper()
	s, err := e2nvm.Open(e2nvm.Config{
		SegmentSize: 32,
		NumSegments: numSegs,
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

// TestPutBatchMatchesSequentialPut: a PutBatch must leave the store in
// exactly the state a loop of Puts would — same values readable, same
// live-key count, same device counters.
func TestPutBatchMatchesSequentialPut(t *testing.T) {
	batched := openFacade(t, 128)
	seq := openFacade(t, 128)

	n := 40
	keys := make([]uint64, n)
	vals := make([][]byte, n)
	for i := range keys {
		keys[i] = uint64(i * 7)
		vals[i] = []byte(fmt.Sprintf("value-%03d", i))
	}
	if err := batched.PutBatch(keys, vals, nil); err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	for i := range keys {
		if err := seq.Put(keys[i], vals[i]); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	if b, s := batched.Metrics(), seq.Metrics(); b != s {
		t.Fatalf("Metrics differ:\nbatched    %+v\nsequential %+v", b, s)
	}
	if batched.Len() != seq.Len() {
		t.Fatalf("Len: batched %d, sequential %d", batched.Len(), seq.Len())
	}
	for i, key := range keys {
		got, ok, err := batched.Get(key)
		if err != nil || !ok {
			t.Fatalf("Get %d: ok=%v err=%v", key, ok, err)
		}
		if !bytes.Equal(got, vals[i]) {
			t.Fatalf("key %d: got %q, want %q", key, got, vals[i])
		}
	}
}

// TestPutBatchDuplicateKeys: duplicates within one batch must apply in
// index order — the later value wins, and the earlier copy's segment is
// recycled rather than leaked.
func TestPutBatchDuplicateKeys(t *testing.T) {
	s := openFacade(t, 64)
	keys := []uint64{5, 9, 5, 7, 5}
	vals := [][]byte{[]byte("first"), []byte("nine"), []byte("second"), []byte("seven"), []byte("third")}
	if err := s.PutBatch(keys, vals, nil); err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	got, ok, err := s.Get(5)
	if err != nil || !ok {
		t.Fatalf("Get(5): ok=%v err=%v", ok, err)
	}
	if string(got) != "third" {
		t.Fatalf("Get(5) = %q, want the batch's last write %q", got, "third")
	}
}

// TestPutBatchPartialFailure: an oversized value mid-batch must fail only
// its own slot — every other item still lands, and the per-item error
// slice pinpoints the failure.
func TestPutBatchPartialFailure(t *testing.T) {
	s := openFacade(t, 64)
	keys := []uint64{1, 2, 3}
	vals := [][]byte{[]byte("ok-1"), make([]byte, s.MaxValue()+1), []byte("ok-3")}
	errs := make([]error, len(keys))
	err := s.PutBatch(keys, vals, errs)
	if !errors.Is(err, e2nvm.ErrValueTooLarge) {
		t.Fatalf("PutBatch error = %v, want ErrValueTooLarge", err)
	}
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("healthy items got errors: %v, %v", errs[0], errs[2])
	}
	if !errors.Is(errs[1], e2nvm.ErrValueTooLarge) {
		t.Fatalf("errs[1] = %v, want ErrValueTooLarge", errs[1])
	}
	for _, key := range []uint64{1, 3} {
		if _, ok, err := s.Get(key); !ok || err != nil {
			t.Fatalf("key %d missing after partial failure: ok=%v err=%v", key, ok, err)
		}
	}
	if _, ok, _ := s.Get(2); ok {
		t.Fatal("oversized item was stored")
	}
}

// TestPutBatchLengthMismatch: misaligned slices are rejected up front,
// before any item is applied.
func TestPutBatchLengthMismatch(t *testing.T) {
	s := openFacade(t, 64)
	if err := s.PutBatch([]uint64{1, 2}, [][]byte{[]byte("x")}, nil); !errors.Is(err, e2nvm.ErrBadBatch) {
		t.Fatalf("values mismatch error = %v, want ErrBadBatch", err)
	}
	if err := s.PutBatch([]uint64{1}, [][]byte{[]byte("x")}, make([]error, 2)); !errors.Is(err, e2nvm.ErrBadBatch) {
		t.Fatalf("errs mismatch error = %v, want ErrBadBatch", err)
	}
	if err := s.GetBatch([]uint64{1, 2}, make([][]byte, 1), make([]bool, 2), nil); !errors.Is(err, e2nvm.ErrBadBatch) {
		t.Fatalf("GetBatch mismatch error = %v, want ErrBadBatch", err)
	}
	if s.Len() != 0 || s.Metrics().Writes != 0 {
		t.Fatalf("a refused batch applied an item: Len = %d, Writes = %d", s.Len(), s.Metrics().Writes)
	}
}

// TestGetBatch: hits fill their dst slots (reusing caller buffers),
// misses report ok=false without error and leave an empty slot.
func TestGetBatch(t *testing.T) {
	s := openFacade(t, 64)
	if err := s.Put(10, []byte("ten")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(30, []byte("thirty")); err != nil {
		t.Fatal(err)
	}
	keys := []uint64{10, 20, 30}
	dsts := make([][]byte, len(keys))
	dsts[0] = make([]byte, 0, 16) // pre-sized: must be reused, not replaced
	reuse := &dsts[0][:1][0]
	dsts[1] = []byte("stale")
	oks := make([]bool, len(keys))
	if err := s.GetBatch(keys, dsts, oks, nil); err != nil {
		t.Fatalf("GetBatch: %v", err)
	}
	if !oks[0] || oks[1] || !oks[2] {
		t.Fatalf("oks = %v, want [true false true]", oks)
	}
	if string(dsts[0]) != "ten" || string(dsts[2]) != "thirty" {
		t.Fatalf("values = %q, %q", dsts[0], dsts[2])
	}
	if &dsts[0][:1][0] != reuse {
		t.Fatal("GetBatch reallocated a dst buffer that was large enough")
	}
	if len(dsts[1]) != 0 {
		t.Fatalf("missing key left %q in its slot", dsts[1])
	}
}

// steadyBatch returns 8 keys with one small value each.
func steadyBatch() ([]uint64, [][]byte) {
	keys := make([]uint64, 8)
	vals := make([][]byte, 8)
	for i := range keys {
		keys[i] = uint64(i)
		vals[i] = []byte("steady-val")
	}
	return keys, vals
}

// TestPutBatchZeroAlloc / TestGetBatchZeroAlloc: the batched calls carry
// the same 0 allocs/op contract as Put/GetInto once scratch is warm.
func TestPutBatchZeroAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race-mode sync.Pool drops Puts, so the pooled predict scratch allocates by design")
	}
	s := openFacade(t, 128)
	keys, vals := steadyBatch()
	if err := s.PutBatch(keys, vals, nil); err != nil { // warm scratch
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(50, func() {
		if err := s.PutBatch(keys, vals, nil); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Fatalf("PutBatch allocates %v per batch, want 0", n)
	}
}

func TestGetBatchZeroAlloc(t *testing.T) {
	s := openFacade(t, 64)
	keys, vals := steadyBatch()
	if err := s.PutBatch(keys, vals, nil); err != nil {
		t.Fatal(err)
	}
	dsts := make([][]byte, len(keys))
	oks := make([]bool, len(keys))
	if err := s.GetBatch(keys, dsts, oks, nil); err != nil { // warm dst buffers
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(50, func() {
		if err := s.GetBatch(keys, dsts, oks, nil); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Fatalf("GetBatch allocates %v per batch, want 0", n)
	}
}
