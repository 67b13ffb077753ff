package e2nvm

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"e2nvm/internal/testutil"
)

// forBatchShapes runs body over the store shapes the batch tests cover:
// one shard and four, each over plain stores (rf 1) and over replica
// groups (rf 2).
func forBatchShapes(t *testing.T, body func(t *testing.T, s *Store)) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			for _, rf := range []int{1, 2} {
				t.Run(fmt.Sprintf("rf=%d", rf), func(t *testing.T) {
					s, err := Open(replConfig(shards, rf))
					if err != nil {
						t.Fatal(err)
					}
					defer s.Close()
					body(t, s)
				})
			}
		})
	}
}

// TestFacadeBatchRoundTrip: the public PutBatch/GetBatch must round-trip
// through the sharded facade and agree with the per-item API.
func TestFacadeBatchRoundTrip(t *testing.T) {
	forBatchShapes(t, func(t *testing.T, s *Store) {
		n := 20
		keys := make([]uint64, n)
		vals := make([][]byte, n)
		for i := range keys {
			keys[i] = uint64(i * 11)
			vals[i] = []byte(fmt.Sprintf("batch-%02d", i))
		}
		if err := s.PutBatch(keys, vals, nil); err != nil {
			t.Fatalf("PutBatch: %v", err)
		}
		// Per-item reads see the batched writes…
		for i := range keys {
			got, ok, err := s.Get(keys[i])
			if err != nil || !ok || !bytes.Equal(got, vals[i]) {
				t.Fatalf("Get(%d) = %q ok=%v err=%v, want %q", keys[i], got, ok, err, vals[i])
			}
		}
		// …and batched reads see per-item writes mixed with misses.
		if err := s.Put(7777, []byte("solo")); err != nil {
			t.Fatal(err)
		}
		qk := []uint64{keys[0], 7777, 424242}
		dsts := make([][]byte, len(qk))
		oks := make([]bool, len(qk))
		if err := s.GetBatch(qk, dsts, oks, nil); err != nil {
			t.Fatalf("GetBatch: %v", err)
		}
		if !oks[0] || !oks[1] || oks[2] {
			t.Fatalf("oks = %v, want [true true false]", oks)
		}
		if string(dsts[1]) != "solo" {
			t.Fatalf("dsts[1] = %q, want solo", dsts[1])
		}
		if s.Len() != n+1 {
			t.Fatalf("Len = %d, want %d", s.Len(), n+1)
		}
		// A key repeated inside one batch: the later pair wins, exactly
		// as sequential Puts would, and GetBatch answers every position
		// in index order.
		dk := []uint64{keys[1], keys[2], keys[1]}
		dv := [][]byte{[]byte("first"), []byte("other"), []byte("last")}
		if err := s.PutBatch(dk, dv, nil); err != nil {
			t.Fatalf("PutBatch with a duplicate key: %v", err)
		}
		dsts, oks = make([][]byte, len(dk)), make([]bool, len(dk))
		if err := s.GetBatch(dk, dsts, oks, nil); err != nil {
			t.Fatalf("GetBatch: %v", err)
		}
		for i, want := range []string{"last", "other", "last"} {
			if !oks[i] || string(dsts[i]) != want {
				t.Fatalf("after duplicate batch, position %d = (%q,%v), want %q", i, dsts[i], oks[i], want)
			}
		}
		// Misaligned slices are refused.
		if err := s.PutBatch(dk, dv[:2], nil); !errors.Is(err, ErrBadBatch) {
			t.Fatalf("PutBatch with short values = %v, want ErrBadBatch", err)
		}
		if err := s.GetBatch(dk, dsts, oks[:2], nil); !errors.Is(err, ErrBadBatch) {
			t.Fatalf("GetBatch with short oks = %v, want ErrBadBatch", err)
		}
		if err := s.PutBatch(dk, dv, make([]error, 1)); !errors.Is(err, ErrBadBatch) {
			t.Fatalf("PutBatch with short errs = %v, want ErrBadBatch", err)
		}
	})
}

// TestFacadeBatchErrorsSurviveShardBoundary: a per-item failure must come
// back under its caller index still answering errors.Is against the public
// sentinel, and must not abort the other items (including ones routed to
// other shards).
func TestFacadeBatchErrorsSurviveShardBoundary(t *testing.T) {
	forBatchShapes(t, func(t *testing.T, s *Store) {
		keys := []uint64{3, 17, 31, 45}
		vals := [][]byte{
			[]byte("ok-0"),
			make([]byte, s.MaxValue()+1), // too large: per-item sentinel
			[]byte("ok-2"),
			[]byte("ok-3"),
		}
		errs := make([]error, len(keys))
		err := s.PutBatch(keys, vals, errs)
		if !errors.Is(err, ErrValueTooLarge) {
			t.Fatalf("PutBatch returned %v, want errors.Is ErrValueTooLarge", err)
		}
		for i, e := range errs {
			if i == 1 {
				if !errors.Is(e, ErrValueTooLarge) {
					t.Fatalf("errs[1] = %v, want errors.Is ErrValueTooLarge", e)
				}
				continue
			}
			if e != nil {
				t.Fatalf("errs[%d] = %v, want nil", i, e)
			}
		}
		// The failed item must not have blocked its siblings.
		for _, i := range []int{0, 2, 3} {
			got, ok, err := s.Get(keys[i])
			if err != nil || !ok || !bytes.Equal(got, vals[i]) {
				t.Fatalf("Get(%d) = %q ok=%v err=%v, want %q", keys[i], got, ok, err, vals[i])
			}
		}
	})
}

// TestPutBatchMatchesSequentialPut: a batch is a loop of single
// operations, so a store fed by PutBatch/GetBatch must end bit-identical to
// an identically seeded store fed by Put/Get loops — same per-segment and
// per-bit wear, same counters (flips, energy, cache hits), same values —
// across shard counts, replication and the cache, with duplicate keys and
// an oversized item in the batch.
func TestPutBatchMatchesSequentialPut(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, rf := range []int{1, 2} {
			for _, cached := range []bool{false, true} {
				t.Run(fmt.Sprintf("shards=%d/rf=%d/cache=%v", shards, rf, cached), func(t *testing.T) {
					cfg := replConfig(shards, rf)
					cfg.CacheEnabled = cached
					cfg.TrackBitWear = true
					open := func() *Store {
						s, err := Open(cfg)
						if err != nil {
							t.Fatal(err)
						}
						t.Cleanup(s.Close)
						return s
					}
					batched, looped := open(), open()
					n := 24
					keys := make([]uint64, n)
					vals := make([][]byte, n)
					for round := 0; round < 2; round++ {
						for i := range keys {
							keys[i] = uint64(i * 7)
							vals[i] = bytes.Repeat([]byte{byte(i + round)}, 1+(i+round)%batched.MaxValue())
						}
						keys[5], keys[9] = keys[2], keys[2] // later duplicates win
						vals[11] = make([]byte, batched.MaxValue()+1)
						errs := make([]error, n)
						if err := batched.PutBatch(keys, vals, errs); !errors.Is(err, ErrValueTooLarge) {
							t.Fatalf("round %d: PutBatch = %v, want ErrValueTooLarge", round, err)
						}
						for i := range keys {
							err := looped.Put(keys[i], vals[i])
							if (err == nil) != (errs[i] == nil) {
								t.Fatalf("round %d item %d: Put = %v, batch slot = %v", round, i, err, errs[i])
							}
						}
						dsts := make([][]byte, n)
						oks := make([]bool, n)
						if err := batched.GetBatch(keys, dsts, oks, nil); err != nil {
							t.Fatalf("round %d: GetBatch: %v", round, err)
						}
						for i, k := range keys {
							v, ok, err := looped.Get(k)
							if err != nil || ok != oks[i] || !bytes.Equal(v, dsts[i]) {
								t.Fatalf("round %d key %d: Get = (%q,%v,%v), GetBatch slot = (%q,%v)", round, k, v, ok, err, dsts[i], oks[i])
							}
						}
					}
					// Close drains every follower's ship queue, so follower
					// wear is final before it is compared.
					batched.Close()
					looped.Close()
					if b, l := batched.Metrics(), looped.Metrics(); b != l {
						t.Fatalf("Metrics differ:\nbatched %+v\nlooped  %+v", b, l)
					}
					if !reflect.DeepEqual(batched.SegmentWrites(), looped.SegmentWrites()) {
						t.Fatal("SegmentWrites differ")
					}
					if !reflect.DeepEqual(batched.BitWear(), looped.BitWear()) {
						t.Fatal("BitWear differs")
					}
					if batched.Len() != looped.Len() {
						t.Fatalf("Len: batched %d, looped %d", batched.Len(), looped.Len())
					}
				})
			}
		}
	}
}

// TestCachedGetBatchZeroAlloc: a GetBatch served wholly from the hot
// cache allocates nothing per batch and reads nothing from the devices.
func TestCachedGetBatchZeroAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race-mode sync.Pool drops Puts, so the pooled predict scratch allocates by design")
	}
	cfg := smallConfig()
	cfg.Shards = 4
	cfg.NumSegments = 128 * cfg.Shards
	cfg.CacheEnabled = true
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	keys := make([]uint64, 16)
	vals := make([][]byte, len(keys))
	for i := range keys {
		keys[i] = uint64(i * 3)
		vals[i] = []byte("steady-val")
	}
	dsts := make([][]byte, len(keys))
	oks := make([]bool, len(keys))
	get := func() {
		if err := s.GetBatch(keys, dsts, oks, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.PutBatch(keys, vals, nil); err != nil {
		t.Fatal(err)
	}
	get() // fill the cache and the dst buffers
	get()
	reads := s.Metrics().Reads
	if n := testing.AllocsPerRun(50, get); n != 0 {
		t.Fatalf("cache-hit GetBatch allocates %v per batch, want 0", n)
	}
	if r := s.Metrics().Reads; r != reads {
		t.Fatalf("warm GetBatch missed the cache: device reads %d -> %d", reads, r)
	}
}

// TestOpenConfigErrors: geometry mistakes at Open answer errors.Is
// against ErrConfig.
func TestOpenConfigErrors(t *testing.T) {
	cfg := smallConfig()
	cfg.NumSegments = 4
	cfg.Shards = 8 // more shards than segments
	if _, err := Open(cfg); !errors.Is(err, ErrConfig) {
		t.Fatalf("Open = %v, want errors.Is ErrConfig", err)
	}
}
