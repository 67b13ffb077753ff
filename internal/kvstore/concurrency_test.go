package kvstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
)

// TestResetStatsZeroesEveryCounter drives every store-level counter
// non-zero, resets, and asserts a fully zero Stats snapshot — including
// the retrain counter, which is derived from the manager's cumulative
// count and must be re-based, not merely copied.
func TestResetStatsZeroesEveryCounter(t *testing.T) {
	s := openStore(t, 32, 64, Options{})

	val := []byte("v")
	for k := uint64(0); k < 8; k++ {
		if err := s.Put(k, val); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := s.Get(1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Delete(2); err != nil {
		t.Fatal(err)
	}
	if err := s.Scan(0, 10, func(uint64, []byte) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if err := s.Retrain(); err != nil {
		t.Fatal(err)
	}
	// Fence a segment and force worn writes + a retirement through it.
	if err := s.Device().FailSegment(5); err != nil {
		t.Fatal(err)
	}
	for k := uint64(100); k < 140; k++ {
		if err := s.Put(k, val); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Scrub(64); err != nil {
		t.Fatal(err)
	}

	before := s.Stats()
	if before.Puts == 0 || before.Gets == 0 || before.Deletes == 0 || before.Scans == 0 || before.Retrains == 0 {
		t.Fatalf("setup did not exercise the counters: %+v", before)
	}

	s.ResetStats()
	if got := s.Stats(); got != (Stats{}) {
		t.Fatalf("Stats after ResetStats = %+v, want all zero", got)
	}

	// Counters keep working after the reset, and Retrains counts deltas.
	if err := s.Put(1, val); err != nil {
		t.Fatal(err)
	}
	if err := s.Retrain(); err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if after.Puts != 1 || after.Retrains != 1 {
		t.Fatalf("post-reset Stats = %+v, want Puts=1 Retrains=1", after)
	}
}

// TestScanReentrantCallback calls back into the store from inside a Scan
// callback. The old implementation held s.mu across the callback, so a
// re-entrant Get deadlocked on the non-reentrant mutex.
func TestScanReentrantCallback(t *testing.T) {
	s := openStore(t, 32, 64, Options{})
	want := map[uint64][]byte{}
	for k := uint64(10); k < 20; k++ {
		v := []byte(fmt.Sprintf("val-%d", k))
		if err := s.Put(k, v); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	visited := 0
	err := s.Scan(0, ^uint64(0), func(k uint64, v []byte) bool {
		visited++
		if !bytes.Equal(v, want[k]) {
			t.Fatalf("scan key %d = %q, want %q", k, v, want[k])
		}
		// Re-enter through every serving-path entry point.
		got, ok, err := s.Get(k)
		if err != nil || !ok || !bytes.Equal(got, want[k]) {
			t.Fatalf("re-entrant Get(%d) = (%q,%v,%v)", k, got, ok, err)
		}
		if s.Len() != len(want) {
			t.Fatalf("re-entrant Len = %d, want %d", s.Len(), len(want))
		}
		if k == 12 {
			// A nested scan must not deadlock either.
			if err := s.Scan(10, 11, func(uint64, []byte) bool { return true }); err != nil {
				t.Fatalf("nested Scan: %v", err)
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if visited != len(want) {
		t.Fatalf("visited %d keys, want %d", visited, len(want))
	}
}

// TestScanChunkBoundaries forces multiple capture chunks and checks
// ordering, completeness, and early termination across chunk boundaries.
func TestScanChunkBoundaries(t *testing.T) {
	s := openStore(t, 32, 512, Options{})
	n := uint64(scanChunk*2 + scanChunk/2) // 2.5 chunks
	var buf [8]byte
	for k := uint64(0); k < n; k++ {
		binary.LittleEndian.PutUint64(buf[:], k)
		if err := s.Put(k, buf[:]); err != nil {
			t.Fatal(err)
		}
	}
	var keys []uint64
	err := s.Scan(0, ^uint64(0), func(k uint64, v []byte) bool {
		if got := binary.LittleEndian.Uint64(v); got != k {
			t.Fatalf("key %d carries value %d", k, got)
		}
		keys = append(keys, k)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(keys)) != n {
		t.Fatalf("scanned %d keys, want %d", len(keys), n)
	}
	for i, k := range keys {
		if k != uint64(i) {
			t.Fatalf("keys out of order at %d: %d", i, k)
		}
	}
	// Early stop exactly on a chunk boundary.
	count := 0
	if err := s.Scan(0, ^uint64(0), func(uint64, []byte) bool {
		count++
		return count < scanChunk
	}); err != nil {
		t.Fatal(err)
	}
	if count != scanChunk {
		t.Fatalf("early-stop visited %d, want %d", count, scanChunk)
	}
}

// TestNextInto walks a store in key order through the shard-merge
// primitive.
func TestNextInto(t *testing.T) {
	s := openStore(t, 32, 64, Options{})
	for _, k := range []uint64{5, 9, 2, 30} {
		if err := s.Put(k, []byte(fmt.Sprintf("v%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	var got []uint64
	buf := make([]byte, 0, 16)
	cursor := uint64(0)
	for {
		k, v, ok, err := s.NextInto(cursor, 29, buf)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if want := fmt.Sprintf("v%d", k); string(v) != want {
			t.Fatalf("NextInto key %d value %q, want %q", k, v, want)
		}
		got = append(got, k)
		buf = v[:0]
		cursor = k + 1
	}
	want := []uint64{2, 5, 9}
	if len(got) != len(want) {
		t.Fatalf("NextInto walked %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("NextInto walked %v, want %v", got, want)
		}
	}
}

// TestRetrainConcurrentPut hammers Put/Get while a synchronous Retrain is
// in flight, then verifies every key. Run under -race this also checks the
// documented contract that the retrain snapshot may interleave with
// writers without a data race.
func TestRetrainConcurrentPut(t *testing.T) {
	s := openStore(t, 32, 256, Options{})
	const keys = 32
	var buf [8]byte
	for k := uint64(0); k < keys; k++ {
		binary.LittleEndian.PutUint64(buf[:], k)
		if err := s.Put(k, buf[:]); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var b [8]byte
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := uint64(i % keys)
			binary.LittleEndian.PutUint64(b[:], k)
			if err := s.Put(k, b[:]); err != nil {
				t.Errorf("concurrent Put: %v", err)
				return
			}
			if _, _, err := s.Get(k); err != nil {
				t.Errorf("concurrent Get: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 2; i++ {
		if err := s.Retrain(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	for k := uint64(0); k < keys; k++ {
		v, ok, err := s.Get(k)
		if err != nil || !ok {
			t.Fatalf("Get(%d) after retrain = (%v,%v)", k, ok, err)
		}
		if got := binary.LittleEndian.Uint64(v); got != k {
			t.Fatalf("key %d carries value %d after retrain", k, got)
		}
	}
	if st := s.Stats(); st.Retrains != 2 {
		t.Fatalf("Retrains = %d, want 2", st.Retrains)
	}
}

// TestConcurrentStressIndexMore: two IndexMore calls racing from the same
// watermark must index disjoint ranges. Claiming the range outside the
// store lock let both pool the same 64 segments; Indexed() then stopped at
// 128, the duplicated addresses were handed to two keys each, and
// acknowledged Puts read back another key's value.
func TestConcurrentStressIndexMore(t *testing.T) {
	s := openStore(t, 32, 256, Options{IndexFraction: 0.25})
	if got := s.Indexed(); got != 64 {
		t.Fatalf("Indexed() = %d at open, want 64", got)
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make([]error, 2)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			_, errs[g] = s.IndexMore(64)
		}(g)
	}
	close(start)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Indexed(); got != 192 {
		t.Fatalf("Indexed() = %d after two IndexMore(64), want 192", got)
	}

	const puts = 150
	val := func(k uint64) []byte { return []byte(fmt.Sprintf("value-%03d", k)) }
	for k := uint64(0); k < puts; k++ {
		if err := s.Put(k, val(k)); err != nil {
			t.Fatalf("Put(%d): %v", k, err)
		}
	}
	for k := uint64(0); k < puts; k++ {
		got, ok, err := s.Get(k)
		if err != nil || !ok || !bytes.Equal(got, val(k)) {
			t.Fatalf("Get(%d) = (%q, %v, %v), want %q", k, got, ok, err, val(k))
		}
	}

	// Every indexed segment is either live or pooled exactly once.
	seen := map[int]bool{}
	s.mu.Lock()
	s.tree.Range(0, ^uint64(0), func(_ uint64, addr int64) bool {
		seen[int(addr)] = true
		return true
	})
	s.mu.Unlock()
	for {
		addr, _, ok := s.Pool().Get(0)
		if !ok {
			break
		}
		if seen[addr] {
			t.Fatalf("segment %d pooled twice or pooled while live", addr)
		}
		seen[addr] = true
	}
	if len(seen) != 192 {
		t.Fatalf("%d distinct segments live or pooled, want 192", len(seen))
	}
}
