package e2nvm

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"e2nvm/internal/shard"
)

// forBatchShapes runs body over the store shapes the batch tests cover: the
// router's single-shard delegation and its counting-sort fan-out, each over
// plain stores (rf 1, kvstore's blocked batch path) and over replica groups
// (rf 2, Group.PutBatch/GetBatch).
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
// through the sharded facade (shard grouping + per-shard batching) and
// agree with the per-item API.
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
		// Misaligned slices are refused before anything is routed.
		if err := s.PutBatch(dk, dv[:2], nil); !errors.Is(err, shard.ErrBadBatch) {
			t.Fatalf("PutBatch with short values = %v, want ErrBadBatch", err)
		}
		if err := s.GetBatch(dk, dsts, oks[:2], nil); !errors.Is(err, shard.ErrBadBatch) {
			t.Fatalf("GetBatch with short oks = %v, want ErrBadBatch", err)
		}
		if err := s.PutBatch(dk, dv, make([]error, 1)); !errors.Is(err, shard.ErrBadBatch) {
			t.Fatalf("PutBatch with short errs = %v, want ErrBadBatch", err)
		}
	})
}

// TestFacadeBatchErrorsSurviveShardBoundary: a per-item failure inside one
// shard's sub-batch must come back through the router's regroup machinery
// still answering errors.Is against the public sentinel, and must not
// abort the other items (including ones routed to other shards).
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
