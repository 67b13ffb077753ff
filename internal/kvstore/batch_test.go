package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"e2nvm/internal/testutil"
)

// TestPutBatchMatchesSequentialPut: a PutBatch must leave the store in
// exactly the state a loop of Puts would — same values readable, same
// live-key count.
func TestPutBatchMatchesSequentialPut(t *testing.T) {
	batched := openStore(t, 32, 128, Options{})
	seq := openStore(t, 32, 128, Options{})

	n := 40 // crosses putBatchBlock boundaries, including a short tail
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
	if got := batched.Stats().Puts; got != uint64(n) {
		t.Fatalf("Stats.Puts = %d, want %d", got, n)
	}
}

// TestPutBatchDuplicateKeys: duplicates within one batch must apply in
// index order — the later value wins, and the earlier copy's segment is
// recycled rather than leaked.
func TestPutBatchDuplicateKeys(t *testing.T) {
	s := openStore(t, 32, 64, Options{})
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
	s := openStore(t, 32, 64, Options{})
	keys := []uint64{1, 2, 3}
	vals := [][]byte{[]byte("ok-1"), make([]byte, s.MaxValue()+1), []byte("ok-3")}
	errs := make([]error, len(keys))
	err := s.PutBatch(keys, vals, errs)
	if !errors.Is(err, ErrValueTooLarge) {
		t.Fatalf("PutBatch error = %v, want ErrValueTooLarge", err)
	}
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("healthy items got errors: %v, %v", errs[0], errs[2])
	}
	if !errors.Is(errs[1], ErrValueTooLarge) {
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

// TestPutBatchLengthMismatch: misaligned slices are rejected up front.
func TestPutBatchLengthMismatch(t *testing.T) {
	s := openStore(t, 32, 64, Options{})
	if err := s.PutBatch([]uint64{1, 2}, [][]byte{[]byte("x")}, nil); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("values mismatch error = %v, want ErrBadOptions", err)
	}
	if err := s.PutBatch([]uint64{1}, [][]byte{[]byte("x")}, make([]error, 2)); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("errs mismatch error = %v, want ErrBadOptions", err)
	}
	if err := s.GetBatch([]uint64{1, 2}, make([][]byte, 1), make([]bool, 2), nil); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("GetBatch mismatch error = %v, want ErrBadOptions", err)
	}
}

// TestGetBatch: hits fill their dst slots (reusing caller buffers),
// misses report ok=false without error.
func TestGetBatch(t *testing.T) {
	s := openStore(t, 32, 64, Options{})
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
		t.Fatalf("missing key left %d bytes in its slot", len(dsts[1]))
	}
}

// TestPutBatchZeroAlloc / TestGetBatchZeroAlloc: the batched paths carry
// the same 0 allocs/op contract as Put/GetInto once scratch is warm.
func TestPutBatchZeroAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race-mode sync.Pool drops Puts, so the pooled predict scratch allocates by design")
	}
	s := openStore(t, 32, 128, Options{})
	keys := make([]uint64, 8)
	vals := make([][]byte, 8)
	for i := range keys {
		keys[i] = uint64(i)
		vals[i] = []byte("steady-val")
	}
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

// TestSingleOpZeroAlloc: the single-op serving paths allocate nothing once
// their scratch is warm — plain, through the redo log, and on a device
// whose worn segments the retire-and-retry path has already routed around.
func TestSingleOpZeroAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race-mode sync.Pool drops Puts, so the pooled predict scratch allocates by design")
	}
	const key = 3
	val := []byte("steady-val")
	put := func(t *testing.T, s *Store) {
		if err := s.Put(key, val); err != nil {
			t.Fatal(err)
		}
	}
	dst := make([]byte, 0, len(val))
	for _, tc := range []struct {
		name  string
		opts  Options
		stuck bool // stick the valid-flag cell of every 4th segment before warm-up
		op    func(t *testing.T, s *Store)
	}{
		{name: "Put/overwrite", op: put},
		{name: "GetInto", op: func(t *testing.T, s *Store) {
			if _, ok, err := s.GetInto(key, dst); err != nil || !ok {
				t.Fatalf("GetInto = (%v,%v)", ok, err)
			}
		}},
		{name: "Delete+Put", op: func(t *testing.T, s *Store) {
			if ok, err := s.Delete(key); err != nil || !ok {
				t.Fatalf("Delete = (%v,%v)", ok, err)
			}
			put(t, s)
		}},
		{name: "Put/crashsafe", opts: Options{CrashSafe: true}, op: put},
		{name: "Put/faulted", stuck: true, op: put},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const segs = 128
			s := openStore(t, 32, segs, tc.opts)
			if tc.stuck {
				for addr := 0; addr < segs; addr += 4 {
					if err := s.Device().InjectStuckAt(addr, 0); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Warm-up cycles the whole pool several times: scratch buffers
			// reach their final size and, in the stuck case, every segment
			// whose flag cell cannot be set or cleared has been retired.
			for i := 0; i < 4*segs; i++ {
				put(t, s)
			}
			if tc.stuck {
				// The record may be sitting on the last stuck segment, whose
				// flag cell then refuses to clear on the next overwrite.
				for i := 0; s.Stats().Retired < segs/4; i++ {
					if i == segs {
						t.Fatalf("warm-up retired %d of %d stuck segments", s.Stats().Retired, segs/4)
					}
					put(t, s)
				}
			}
			if n := testing.AllocsPerRun(100, func() { tc.op(t, s) }); n != 0 {
				t.Fatalf("%s allocates %v per op, want 0", tc.name, n)
			}
		})
	}
}

func TestGetBatchZeroAlloc(t *testing.T) {
	s := openStore(t, 32, 64, Options{})
	keys := make([]uint64, 8)
	vals := make([][]byte, 8)
	for i := range keys {
		keys[i] = uint64(i)
		vals[i] = []byte("steady-val")
	}
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

// TestPutBatchArbitraryPlacement: the baseline placement policy must ride
// the batched path too (no prediction, in-place updates).
func TestPutBatchArbitraryPlacement(t *testing.T) {
	s := openStore(t, 32, 64, Options{Placement: PlaceArbitrary})
	keys := []uint64{1, 2, 1}
	vals := [][]byte{[]byte("a"), []byte("b"), []byte("a2")}
	if err := s.PutBatch(keys, vals, nil); err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	got, ok, err := s.Get(1)
	if err != nil || !ok || string(got) != "a2" {
		t.Fatalf("Get(1) = %q ok=%v err=%v, want a2", got, ok, err)
	}
}
