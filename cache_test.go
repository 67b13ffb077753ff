package e2nvm

import (
	"bytes"
	"fmt"
	"testing"
)

func cachedConfig() Config {
	cfg := smallConfig()
	cfg.CacheEnabled = true
	return cfg
}

func TestCacheHitMissMetrics(t *testing.T) {
	s, err := Open(cachedConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(1, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	// First read misses and fills; the rest are DRAM hits with no device
	// reads.
	for i := 0; i < 5; i++ {
		v, ok, err := s.Get(1)
		if err != nil || !ok || string(v) != "v1" {
			t.Fatalf("Get = (%q,%v,%v)", v, ok, err)
		}
	}
	devReadsAfterFill := s.Metrics().Reads
	for i := 0; i < 100; i++ {
		if _, _, err := s.Get(1); err != nil {
			t.Fatal(err)
		}
	}
	m := s.Metrics()
	if m.Reads != devReadsAfterFill {
		t.Fatalf("hot Gets touched the device: reads %d -> %d", devReadsAfterFill, m.Reads)
	}
	if m.CacheHits < 100 || m.CacheMisses == 0 {
		t.Fatalf("cache counters: %+v", m)
	}
	buf := make([]byte, 0, 8)
	if n := testing.AllocsPerRun(100, func() {
		if _, ok, err := s.GetInto(1, buf); err != nil || !ok {
			t.Fatalf("hot GetInto = (%v,%v)", ok, err)
		}
	}); n != 0 {
		t.Fatalf("cache-hit GetInto allocates %v per op, want 0", n)
	}
	h := s.Health()
	if h.CacheEntries != 1 || h.CacheBytes <= 0 {
		t.Fatalf("health cache fields: %+v", h)
	}
	// ResetMetrics zeroes counters but keeps residency.
	s.ResetMetrics()
	m = s.Metrics()
	if m.CacheHits != 0 || m.CacheMisses != 0 {
		t.Fatalf("cache counters survived reset: %+v", m)
	}
	if h := s.Health(); h.CacheEntries != 1 {
		t.Fatalf("reset dropped cache residency: %+v", h)
	}
}

// TestCacheCoherence pins invalidate-before-ack at the facade: after any
// write path returns — Put, Delete, PutBatch — a read must never serve the
// overwritten value, even when the old value was cached hot.
func TestCacheCoherence(t *testing.T) {
	s, err := Open(cachedConfig())
	if err != nil {
		t.Fatal(err)
	}
	key := uint64(7)
	if err := s.Put(key, []byte("old")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ { // make it hot and cached
		s.Get(key)
	}
	if err := s.Put(key, []byte("new")); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := s.Get(key); string(v) != "new" {
		t.Fatalf("Get after Put = %q, want new", v)
	}

	// PutBatch invalidates every key it wrote.
	keys := []uint64{7, 8, 9}
	vals := [][]byte{[]byte("b7"), []byte("b8"), []byte("b9")}
	for _, k := range keys {
		s.Get(k)
	}
	if err := s.PutBatch(keys, vals, nil); err != nil {
		t.Fatal(err)
	}
	dsts := make([][]byte, len(keys))
	oks := make([]bool, len(keys))
	if err := s.GetBatch(keys, dsts, oks, nil); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if !oks[i] || !bytes.Equal(dsts[i], vals[i]) {
			t.Fatalf("GetBatch(%d) = (%q,%v), want %q", k, dsts[i], oks[i], vals[i])
		}
	}
	// A second GetBatch is served from cache; values must still match.
	if err := s.GetBatch(keys, dsts, oks, nil); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if !oks[i] || !bytes.Equal(dsts[i], vals[i]) {
			t.Fatalf("cached GetBatch(%d) = (%q,%v), want %q", k, dsts[i], oks[i], vals[i])
		}
	}

	// Delete invalidates before acknowledging.
	if ok, err := s.Delete(key); err != nil || !ok {
		t.Fatalf("Delete = (%v,%v)", ok, err)
	}
	if _, ok, _ := s.Get(key); ok {
		t.Fatal("Get served a deleted key from cache")
	}
}

// TestCacheDisabledServesIdentically drives the same operation sequence
// through a cached and an uncached store built from the same seed and
// asserts every read returns the same bytes — the cache is transparent —
// while the uncached store reports zero cache and steering activity (the
// CacheEnabled=false path is the pre-cache code exactly).
func TestCacheDisabledServesIdentically(t *testing.T) {
	plain, err := Open(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	cached, err := Open(cachedConfig())
	if err != nil {
		t.Fatal(err)
	}
	val := func(k uint64, r int) []byte { return []byte(fmt.Sprintf("k%d-r%d", k, r)) }
	for r := 0; r < 3; r++ {
		for k := uint64(0); k < 16; k++ {
			if err := plain.Put(k, val(k, r)); err != nil {
				t.Fatal(err)
			}
			if err := cached.Put(k, val(k, r)); err != nil {
				t.Fatal(err)
			}
		}
		for k := uint64(0); k < 16; k++ {
			pv, pok, perr := plain.Get(k)
			cv, cok, cerr := cached.Get(k)
			if perr != nil || cerr != nil || pok != cok || !bytes.Equal(pv, cv) {
				t.Fatalf("round %d key %d: plain (%q,%v,%v) vs cached (%q,%v,%v)",
					r, k, pv, pok, perr, cv, cok, cerr)
			}
		}
	}
	m := plain.Metrics()
	if m.CacheHits != 0 || m.CacheMisses != 0 || m.CacheEvictions != 0 || m.SteeredPlacements != 0 {
		t.Fatalf("uncached store reports cache activity: %+v", m)
	}
	if h := plain.Health(); h.CacheEntries != 0 || h.CacheBytes != 0 {
		t.Fatalf("uncached store reports cache residency: %+v", h)
	}
}

// TestResetMetricsClearsReplicationCounters is the regression test for the
// ResetMetrics bug: on a replicated store, Failovers, MigratedRecords, and
// the per-shard replication counters survived a reset because the
// cluster's atomics were never rebased.
func TestResetMetricsClearsReplicationCounters(t *testing.T) {
	s, err := Open(replConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	k0 := keysOfShard(2, 0, 8)
	for _, k := range k0 {
		if err := s.Put(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// Fence shard 0's leader twice: first a failover, then — replicas
	// exhausted — a live migration into shard 1.
	fenceShard(t, s, 0)
	for _, k := range k0 {
		if err := s.Put(k, []byte("w")); err != nil {
			t.Fatal(err)
		}
	}
	fenceShard(t, s, 0)
	for _, k := range k0[:len(k0)/2] {
		if err := s.Put(k, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	s.Quiesce()
	if err := s.CheckHealth(); err != nil {
		t.Fatal(err)
	}
	s.Quiesce()

	m := s.Metrics()
	if m.Failovers == 0 || m.MigratedRecords == 0 {
		t.Fatalf("test premise: expected failover and migration activity, got %+v", m)
	}

	s.ResetMetrics()

	if m := s.Metrics(); m.Failovers != 0 || m.MigratedRecords != 0 {
		t.Fatalf("Metrics after reset: Failovers=%d MigratedRecords=%d, want 0/0", m.Failovers, m.MigratedRecords)
	}
	for i, sm := range s.ShardMetrics() {
		if sm.Failovers != 0 || sm.MigratedRecords != 0 {
			t.Fatalf("ShardMetrics[%d] after reset: %+v", i, sm)
		}
	}
	if h := s.Health(); h.Failovers != 0 {
		t.Fatalf("Health after reset: Failovers=%d, want 0", h.Failovers)
	}
	for i, sh := range s.ShardHealth() {
		if sh.Failovers != 0 {
			t.Fatalf("ShardHealth[%d] after reset: Failovers=%d", i, sh.Failovers)
		}
	}
	for _, r := range s.Replication() {
		if r.Failovers != 0 || r.Migrated != 0 {
			t.Fatalf("Replication after reset: %+v", r)
		}
	}
	// The store still works and new activity counts from zero.
	for _, k := range k0 {
		if err := s.Put(k, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if m := s.Metrics(); m.Failovers != 0 {
		t.Fatalf("Failovers after quiet writes: %d", m.Failovers)
	}
}

// TestChaosCacheFailoverNoStaleReads extends the chaos suite to the cache:
// on a replicated store with the cache enabled, keys are read hot into
// DRAM, their shard's leader is fenced (failover), and every key is
// overwritten; reads after the acked overwrites must never serve the
// cached pre-failover values. A second fence drains the shard through
// live migration; reads must still match the last acked write.
func TestChaosCacheFailoverNoStaleReads(t *testing.T) {
	cfg := replConfig(2, 2)
	cfg.CacheEnabled = true
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	k0 := keysOfShard(2, 0, 8)
	val := func(k uint64, r int) []byte { return []byte(fmt.Sprintf("k%d-r%d", k, r)) }
	for _, k := range k0 {
		if err := s.Put(k, val(k, 0)); err != nil {
			t.Fatal(err)
		}
	}
	// Heat the keys so the pre-failover values are cached.
	for i := 0; i < 20; i++ {
		for _, k := range k0 {
			if v, ok, err := s.Get(k); err != nil || !ok || !bytes.Equal(v, val(k, 0)) {
				t.Fatalf("warm Get(%d) = (%q,%v,%v)", k, v, ok, err)
			}
		}
	}
	if m := s.Metrics(); m.CacheHits == 0 {
		t.Fatalf("test premise: keys not cached, %+v", m)
	}

	// Round 1: failover. Acked overwrites must defeat the cached values.
	fenceShard(t, s, 0)
	for _, k := range k0 {
		if err := s.Put(k, val(k, 1)); err != nil {
			t.Fatalf("Put(%d) during failover: %v", k, err)
		}
		if v, ok, err := s.Get(k); err != nil || !ok || !bytes.Equal(v, val(k, 1)) {
			t.Fatalf("stale read after failover: Get(%d) = (%q,%v,%v), want %q", k, v, ok, err, val(k, 1))
		}
	}

	// Round 2: drain. The keyspace migrates into shard 1; cached entries
	// for migrated keys must still reflect the last acked writes.
	fenceShard(t, s, 0)
	for _, k := range k0[:len(k0)/2] {
		if err := s.Put(k, val(k, 2)); err != nil {
			t.Fatalf("Put(%d) during drain: %v", k, err)
		}
	}
	s.Quiesce()
	if err := s.CheckHealth(); err != nil {
		t.Fatal(err)
	}
	s.Quiesce()
	for i, k := range k0 {
		want := val(k, 1)
		if i < len(k0)/2 {
			want = val(k, 2)
		}
		for pass := 0; pass < 3; pass++ { // miss+fill, then cached passes
			v, ok, err := s.Get(k)
			if err != nil || !ok || !bytes.Equal(v, want) {
				t.Fatalf("post-drain Get(%d) pass %d = (%q,%v,%v), want %q", k, pass, v, ok, err, want)
			}
		}
	}
	// Cached reads must agree with the store byte for byte.
	for _, k := range k0 {
		cv, cok, cerr := s.Get(k)
		uv, uok, uerr := s.router.GetInto(k, nil)
		if cerr != nil || uerr != nil || cok != uok || !bytes.Equal(cv, uv) {
			t.Fatalf("cache/store divergence on %d: (%q,%v,%v) vs (%q,%v,%v)", k, cv, cok, cerr, uv, uok, uerr)
		}
	}
}
