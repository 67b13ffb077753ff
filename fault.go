package e2nvm

import (
	"errors"

	"e2nvm/internal/kvstore"
	"e2nvm/internal/nvm"
	"e2nvm/internal/replica"
)

// ErrConfig marks Open/Load failures caused by an invalid or inconsistent
// Config (shard/segment geometry, model width mismatches). Test with
// errors.Is.
var ErrConfig = errors.New("e2nvm: invalid configuration")

// ErrBadBatch is returned by PutBatch and GetBatch when the slices passed
// are not index-aligned with keys; no item is applied. Test with
// errors.Is.
var ErrBadBatch = errors.New("e2nvm: batch slice lengths differ")

// Error sentinels surfaced by Store operations, re-exported so callers can
// use errors.Is without importing internal packages.
var (
	// ErrWornOut marks a write refused (or verified bad) because the
	// target segment's cells are worn out.
	ErrWornOut = kvstore.ErrWornOut
	// ErrDegraded is returned instead of a bare ErrNoSpace once segment
	// retirement has consumed more than Config.DegradeThreshold of the
	// device. It wraps ErrNoSpace.
	ErrDegraded = kvstore.ErrDegraded
	// ErrNoSpace is returned when no free segment remains.
	ErrNoSpace = kvstore.ErrNoSpace
	// ErrCorrupt is returned by reads whose stored record fails its
	// checksum — the medium destroyed the data, but the store never
	// serves wrong bytes.
	ErrCorrupt = kvstore.ErrCorrupt
	// ErrValueTooLarge is returned by Put for values over MaxValue.
	ErrValueTooLarge = kvstore.ErrValueTooLarge
	// ErrBadAddress is returned by InjectStuckAt and FailSegment for a
	// global segment address outside the store.
	ErrBadAddress = nvm.ErrBadAddress
	// ErrShardDown is returned by writes to a replicated shard whose every
	// replica has died with no healthy shards left to migrate into. Reads
	// still serve the dead shard's surviving content.
	ErrShardDown = replica.ErrGroupDown
)

// FaultConfig configures the simulated device's cell wear-out process. The
// zero value disables probabilistic faults; segments can still be failed
// deterministically with Store.InjectStuckAt and Store.FailSegment.
type FaultConfig struct {
	// Seed makes the fault process deterministic (independent of
	// Config.Seed so workloads can be replayed against different fault
	// draws).
	Seed int64
	// ProbPerWrite is the chance that a write to a segment past its
	// wear-out onset sticks additional cells.
	ProbPerWrite float64
	// OnsetFraction is the fraction of EnduranceWrites a segment must
	// consume before faults can occur (default 0.85).
	OnsetFraction float64
	// BitsPerFault is how many cells stick per fault event (default 1).
	BitsPerFault int
}

func (f FaultConfig) toInternal() nvm.FaultConfig {
	return nvm.FaultConfig{
		Seed:          f.Seed,
		ProbPerWrite:  f.ProbPerWrite,
		OnsetFraction: f.OnsetFraction,
		BitsPerFault:  f.BitsPerFault,
	}
}

// Health is a snapshot of the store's capacity state under wear-out.
type Health struct {
	DataSegments int  // segments in the data zone
	Retired      int  // segments permanently out of circulation
	LiveKeys     int  // records reachable through the index
	PoolFree     int  // free segments available for placement
	Degraded     bool // retirement has crossed Config.DegradeThreshold

	// Replication state; zero values when ReplicationFactor is 1. State is
	// the shard's lifecycle ("active", "draining", "drained", "down") in
	// per-shard snapshots and empty in the aggregate; ReplicaLag is the
	// worst follower backlog (entries acknowledged but not yet applied).
	State         string
	ReplicaLag    uint64
	Failovers     uint64 // completed leader promotions
	DrainedShards int    // shards whose keyspace migrated away entirely

	// Hot-key cache residency; zero values when CacheEnabled is false and
	// in per-shard snapshots (the cache fronts the whole keyspace).
	CacheEntries int   // live cached values
	CacheBytes   int64 // budgeted DRAM footprint (values + overhead)
}

func healthFrom(h kvstore.Health) Health {
	return Health{
		DataSegments: h.DataSegments,
		Retired:      h.Retired,
		LiveKeys:     h.LiveKeys,
		PoolFree:     h.PoolFree,
		Degraded:     h.Degraded,
	}
}

// worstFollowerLag is the deepest follower backlog in one shard's replica
// set.
func worstFollowerLag(gs replica.GroupStatus) uint64 {
	var lag uint64
	for _, rs := range gs.Replicas {
		if rs.Role == RoleFollower && rs.Lag > lag {
			lag = rs.Lag
		}
	}
	return lag
}

// Health reports the store's current capacity state, aggregated over all
// shards. Degraded is true when any shard has crossed its threshold — keys
// hashing to a degraded shard fail allocation even while others have room.
// On a replicated store only the shards still serving contribute, and the
// replication fields summarize failover and migration activity.
func (s *Store) Health() Health {
	var agg kvstore.Health
	for i := range s.devs {
		if st := s.router.Serving(i); st != nil {
			agg.Add(st.Health())
		}
	}
	h := healthFrom(agg)
	for _, gs := range s.replStatus() {
		h.Failovers += gs.Failovers
		if gs.State == ShardDrained {
			h.DrainedShards++
		}
		h.ReplicaLag = max(h.ReplicaLag, worstFollowerLag(gs))
	}
	cs := s.cacheStats()
	h.CacheEntries, h.CacheBytes = cs.Entries, cs.Bytes
	return h
}

// ShardHealth returns each shard's own capacity snapshot. On a replicated
// store each entry carries the shard's lifecycle state and follower lag; a
// drained shard reports only those (its records now live on other shards).
func (s *Store) ShardHealth() []Health {
	out := make([]Health, len(s.devs))
	for i := range out {
		if st := s.router.Serving(i); st != nil {
			out[i] = healthFrom(st.Health())
		}
	}
	for i, gs := range s.replStatus() {
		out[i].State, out[i].Failovers, out[i].ReplicaLag = gs.State, gs.Failovers, worstFollowerLag(gs)
	}
	return out
}

// ScrubReport summarizes one incremental Scrub pass.
type ScrubReport struct {
	Scanned   int // segments examined
	Relocated int // live records moved off failing segments
	Retired   int // segments newly taken out of circulation
	Lost      int // indexed records whose data is already unrecoverable
}

// Scrub examines up to n segments for latent cell faults, relocating live
// records off failing segments and retiring them. Calling it periodically
// (a media scrubber) turns silent wear into bounded capacity loss before
// the next Put trips over it. When sharded, the budget is split evenly
// across shards and each shard keeps its own sweep cursor. It is a no-op
// when retirement is disabled.
func (s *Store) Scrub(n int) (ScrubReport, error) {
	r, err := s.router.Scrub(n)
	return ScrubReport(r), err
}

// shardOfSegment maps a global segment address to the device currently
// backing its shard — on a replicated store, the shard's serving replica,
// so fault injection lands on whichever device failover has put in charge
// — and that device's local address.
func (s *Store) shardOfSegment(addr int) (*nvm.Device, int, error) {
	if addr < 0 || addr >= s.starts[len(s.starts)-1] {
		return nil, 0, nvm.ErrBadAddress
	}
	for i := 1; i < len(s.starts); i++ {
		if addr < s.starts[i] {
			return s.servingDevice(i - 1), addr - s.starts[i-1], nil
		}
	}
	return nil, 0, nvm.ErrBadAddress
}

// InjectStuckAt deterministically sticks one cell of a segment at its
// current value, for fault-injection tests and experiments. addr is a
// global segment address (shards partition the segment range in order).
func (s *Store) InjectStuckAt(addr, bit int) error {
	dev, local, err := s.shardOfSegment(addr)
	if err != nil {
		return err
	}
	return dev.InjectStuckAt(local, bit)
}

// FailSegment fences a whole segment: reads still serve its frozen
// content, but every future write is refused with ErrWornOut. addr is a
// global segment address.
func (s *Store) FailSegment(addr int) error {
	dev, local, err := s.shardOfSegment(addr)
	if err != nil {
		return err
	}
	return dev.FailSegment(local)
}
