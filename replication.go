package e2nvm

import (
	"e2nvm/internal/dap"
	"e2nvm/internal/kvstore"
	"e2nvm/internal/replica"
)

// Role and shard lifecycle names reported by Replication and Health.
const (
	RoleLeader   = replica.RoleLeader
	RoleFollower = replica.RoleFollower
	RoleDead     = replica.RoleDead

	ShardActive   = replica.StateActive
	ShardDraining = replica.StateDraining
	ShardDrained  = replica.StateDrained
	ShardDown     = replica.StateDown
)

// ReplicaInfo describes one replica of a shard's replica set.
type ReplicaInfo struct {
	Role    string // RoleLeader, RoleFollower, or RoleDead
	Shipped uint64 // redo entries acknowledged to this follower
	Applied uint64 // entries durably applied to its device
	Lag     uint64 // Shipped - Applied: queued but not yet applied
}

// ShardReplication describes one shard's replication state: its lifecycle,
// how many times its leadership moved, what its migration (if any) has
// drained, and each replica's role and apply lag.
type ShardReplication struct {
	Shard     int
	State     string // ShardActive, ShardDraining, ShardDrained, or ShardDown
	Failovers uint64
	Migrated  uint64 // records live-migrated into other shards
	Lost      uint64 // corrupt records the dying medium had already eaten
	Replicas  []ReplicaInfo
}

// Replication snapshots every shard's replica-set state. It returns nil
// when ReplicationFactor is 1.
func (s *Store) Replication() []ShardReplication {
	var out []ShardReplication
	for _, gs := range s.replStatus() {
		sr := ShardReplication{
			Shard:     gs.Group,
			State:     gs.State,
			Failovers: gs.Failovers,
			Migrated:  gs.Migrated,
			Lost:      gs.Lost,
		}
		for _, rs := range gs.Replicas {
			sr.Replicas = append(sr.Replicas, ReplicaInfo(rs))
		}
		out = append(out, sr)
	}
	return out
}

// ReplicationFactor returns the configured replicas per shard (1 when
// unreplicated).
func (s *Store) ReplicationFactor() int { return len(s.shardDevices(0)) }

// CheckHealth sweeps a replicated store for conditions failure-driven
// handling has not observed yet: shards whose leader reports Degraded fail
// over proactively, and stalled migrations are relaunched. It is a no-op
// returning nil when ReplicationFactor is 1 (Health covers inspection).
func (s *Store) CheckHealth() error {
	if s.cluster == nil {
		return nil
	}
	return s.cluster.CheckHealth()
}

// Close releases background resources: on a replicated store it waits out
// live migrations and stops the follower apply goroutines. Serving traffic
// must have stopped. Close is idempotent, and a no-op when
// ReplicationFactor is 1.
func (s *Store) Close() {
	if s.cluster != nil {
		s.cluster.Close()
	}
}

// newCluster assembles the replication layer over the freshly opened
// leaders: ReplicationFactor-1 follower devices per shard, seeded with the
// leader's content so a promoted follower converges byte-identically, each
// drawing an independent fault sequence.
func (c Config) newCluster(stores []*kvstore.Store, starts []int, keyTemp func(uint64) dap.Temp) (*replica.Cluster, error) {
	specs := make([]replica.GroupSpec, len(stores))
	opts := c.storeOptions(c.placement(), keyTemp)
	for i, st := range stores {
		spec := replica.GroupSpec{Leader: st, Opts: opts}
		for f := 0; f < c.ReplicationFactor-1; f++ {
			fdev, err := c.newFollowerDevice(i, f, starts[i], starts[i+1]-starts[i])
			if err != nil {
				return nil, err
			}
			spec.Followers = append(spec.Followers, fdev)
		}
		specs[i] = spec
	}
	return replica.New(specs, replica.Config{})
}
