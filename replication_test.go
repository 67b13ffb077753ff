package e2nvm

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"e2nvm/internal/shard"
)

func replConfig(shards, rf int) Config {
	cfg := smallConfig()
	cfg.NumSegments = 64 * shards
	cfg.Shards = shards
	cfg.ReplicationFactor = rf
	return cfg
}

// keysOfShard returns count keys that hash to shardIdx of n shards.
func keysOfShard(n, shardIdx, count int) []uint64 {
	var out []uint64
	for k := uint64(0); len(out) < count; k++ {
		if int(shard.Mix64(k)%uint64(n)) == shardIdx {
			out = append(out, k)
		}
	}
	return out
}

// fenceShard fails every segment of shardIdx's zone — the current serving
// replica's whole device, log zone included, so both data placement and
// the redo log start refusing writes.
func fenceShard(t *testing.T, s *Store, shardIdx int) {
	t.Helper()
	for addr := s.starts[shardIdx]; addr < s.starts[shardIdx+1]; addr++ {
		if err := s.FailSegment(addr); err != nil {
			t.Fatal(err)
		}
	}
}

func TestReplicationOffByDefault(t *testing.T) {
	s, err := Open(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s.ReplicationFactor() != 1 {
		t.Fatalf("ReplicationFactor = %d, want 1", s.ReplicationFactor())
	}
	if s.Replication() != nil {
		t.Fatal("Replication() non-nil on an unreplicated store")
	}
	if err := s.CheckHealth(); err != nil {
		t.Fatalf("CheckHealth: %v", err)
	}
	s.Close() // must be a safe no-op
	if err := s.Put(1, []byte("v")); err != nil {
		t.Fatalf("Put after no-op Close: %v", err)
	}
}

// TestRF1MatchesUnreplicated pins the compatibility guarantee: setting
// ReplicationFactor to 1 explicitly must leave every byte of behaviour —
// placement, flips, energy — identical to a config without the field.
func TestRF1MatchesUnreplicated(t *testing.T) {
	run := func(cfg Config) (*Store, Metrics) {
		t.Helper()
		s, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(0); k < 48; k++ {
			if err := s.Put(k, []byte(fmt.Sprintf("v-%d", k))); err != nil {
				t.Fatal(err)
			}
		}
		for k := uint64(0); k < 16; k++ {
			if _, err := s.Delete(k); err != nil {
				t.Fatal(err)
			}
		}
		return s, s.Metrics()
	}
	base, bm := run(shardedConfig(2))
	cfg := shardedConfig(2)
	cfg.ReplicationFactor = 1
	repl, rm := run(cfg)
	if bm != rm {
		t.Fatalf("metrics diverge:\nbase %+v\nrf=1 %+v", bm, rm)
	}
	if bw, rw := base.SegmentWrites(), repl.SegmentWrites(); len(bw) != len(rw) {
		t.Fatalf("segment write lengths differ: %d vs %d", len(bw), len(rw))
	} else {
		for i := range bw {
			if bw[i] != rw[i] {
				t.Fatalf("segment %d writes: %d vs %d", i, bw[i], rw[i])
			}
		}
	}
}

func TestReplicatedRoundTrip(t *testing.T) {
	s, err := Open(replConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.ReplicationFactor(); got != 2 {
		t.Fatalf("ReplicationFactor = %d, want 2", got)
	}
	if !strings.Contains(s.String(), "rf: 2") {
		t.Fatalf("String() = %q, want rf noted", s)
	}
	const n = 40
	for k := uint64(0); k < n; k++ {
		if err := s.Put(k, []byte(fmt.Sprintf("v-%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}
	for k := uint64(0); k < n; k++ {
		v, ok, err := s.Get(k)
		if err != nil || !ok || !bytes.Equal(v, []byte(fmt.Sprintf("v-%d", k))) {
			t.Fatalf("Get(%d) = (%q,%v,%v)", k, v, ok, err)
		}
	}
	if ok, err := s.Delete(3); err != nil || !ok {
		t.Fatalf("Delete = (%v,%v)", ok, err)
	}
	// Batches flow through the replicated path with the same contract.
	keys := []uint64{100, 101, 102}
	vals := [][]byte{[]byte("a"), []byte("b"), []byte("c")}
	if err := s.PutBatch(keys, vals, nil); err != nil {
		t.Fatal(err)
	}
	dsts := make([][]byte, 3)
	oks := make([]bool, 3)
	if err := s.GetBatch(keys, dsts, oks, nil); err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if !oks[i] || !bytes.Equal(dsts[i], vals[i]) {
			t.Fatalf("GetBatch[%d] = (%q,%v)", i, dsts[i], oks[i])
		}
	}
	// An ordered scan sees every live key once.
	var got []uint64
	if err := s.Scan(0, ^uint64(0), func(k uint64, v []byte) bool {
		got = append(got, k)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != s.Len() {
		t.Fatalf("scan visited %d keys, Len = %d", len(got), s.Len())
	}
	// Status plumbing: every shard active, one leader + one follower each.
	for _, sr := range s.Replication() {
		if sr.State != ShardActive {
			t.Fatalf("shard %d state = %s", sr.Shard, sr.State)
		}
		if len(sr.Replicas) != 2 || sr.Replicas[0].Role != RoleLeader || sr.Replicas[1].Role != RoleFollower {
			t.Fatalf("shard %d replicas = %+v", sr.Shard, sr.Replicas)
		}
	}
	for i, h := range s.ShardHealth() {
		if h.State != ShardActive {
			t.Fatalf("ShardHealth[%d].State = %s", i, h.State)
		}
	}
	if m := s.Metrics(); m.Failovers != 0 || m.MigratedRecords != 0 || m.Writes == 0 {
		t.Fatalf("Metrics = %+v", m)
	}
}

// TestReplicatedFailoverAndMigration drives the full lifecycle through the
// public API: fence shard 0's leader (failover to its follower, writes keep
// succeeding), then fence the promoted leader too (live migration into
// shard 1), asserting no acknowledged write is ever lost.
func TestReplicatedFailoverAndMigration(t *testing.T) {
	s, err := Open(replConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	k0 := keysOfShard(2, 0, 10)
	k1 := keysOfShard(2, 1, 10)
	val := func(k uint64, round int) []byte { return []byte(fmt.Sprintf("k%d-r%d", k, round)) }
	for _, ks := range [][]uint64{k0, k1} {
		for _, k := range ks {
			if err := s.Put(k, val(k, 0)); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Round 1: kill shard 0's leader device. FailSegment resolves through
	// the serving replica, so this fences the original leader.
	fenceShard(t, s, 0)
	for _, k := range k0 {
		if err := s.Put(k, val(k, 1)); err != nil {
			t.Fatalf("Put(%d) during failover: %v", k, err)
		}
	}
	h := s.Health()
	if h.Failovers != 1 || h.DrainedShards != 0 {
		t.Fatalf("after first fence: %+v", h)
	}
	if sh := s.ShardHealth()[0]; sh.State != ShardActive || sh.Failovers != 1 {
		t.Fatalf("shard 0 after failover: %+v", sh)
	}

	// Round 2: kill the promoted leader too. With no replicas left the
	// keyspace live-migrates into shard 1; writes keep flowing meanwhile.
	// Only overwrite half the keys: the untouched half must reach the new
	// home through the migrator, not through client writes.
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
	if st := s.ShardHealth()[0].State; st != ShardDrained {
		t.Fatalf("shard 0 state = %s, want drained", st)
	}
	if m := s.Metrics(); m.MigratedRecords == 0 {
		t.Fatalf("MigratedRecords = 0 after a drain; metrics %+v", m)
	}

	// Zero lost acknowledged writes, keyspace fully served.
	for i, k := range k0 {
		want := val(k, 1)
		if i < len(k0)/2 {
			want = val(k, 2)
		}
		v, ok, err := s.Get(k)
		if err != nil || !ok || !bytes.Equal(v, want) {
			t.Fatalf("Get(%d) = (%q,%v,%v), want %q", k, v, ok, err, want)
		}
	}
	for _, k := range k1 {
		v, ok, err := s.Get(k)
		if err != nil || !ok || !bytes.Equal(v, val(k, 0)) {
			t.Fatalf("Get(%d) = (%q,%v,%v)", k, v, ok, err)
		}
	}
	if want := len(k0) + len(k1); s.Len() != want {
		t.Fatalf("Len = %d, want %d", s.Len(), want)
	}
	// And the drained shard's keys keep accepting writes on their new home.
	for _, k := range k0 {
		if err := s.Put(k, val(k, 3)); err != nil {
			t.Fatalf("post-drain Put(%d): %v", k, err)
		}
		if ok, err := s.Delete(k); err != nil || !ok {
			t.Fatalf("post-drain Delete(%d) = (%v,%v)", k, ok, err)
		}
	}
}

// TestChaosScrubFailsOverDeadLeader: a Scrub pass that lands on a leader
// whose whole device has just been fenced must fail over like a Put does —
// no error to the caller, one promotion, every acknowledged write still
// readable from the promoted follower.
func TestChaosScrubFailsOverDeadLeader(t *testing.T) {
	cfg := replConfig(2, 2)
	cfg.NumSegments = 256
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	val := func(k uint64) []byte { return []byte(fmt.Sprintf("scrub-%d", k)) }
	for k := uint64(0); k < 40; k++ {
		if err := s.Put(k, val(k)); err != nil {
			t.Fatal(err)
		}
	}
	fenceShard(t, s, 0)
	if _, err := s.Scrub(16); err != nil {
		t.Fatalf("Scrub over a dead leader = %v, want failover and nil", err)
	}
	if f := s.Metrics().Failovers; f != 1 {
		t.Fatalf("Failovers = %d after Scrub hit a dead leader, want 1", f)
	}
	for k := uint64(0); k < 40; k++ {
		if v, ok, err := s.Get(k); err != nil || !ok || !bytes.Equal(v, val(k)) {
			t.Fatalf("Get(%d) = (%q,%v,%v), want %q", k, v, ok, err, val(k))
		}
	}
}
