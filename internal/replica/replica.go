// Package replica turns the sharded E2-NVM stores into a replicated
// cluster: each keyspace group is a replica set whose leader ships its
// redo stream (the checksummed log from internal/txn) to follower
// devices, so the wear-out events the fault model produces become
// failover and rebalancing events instead of data loss.
//
// The write path is acknowledged-write: a Put returns only after its
// transaction's commit record is durable on the leader AND the entry is
// applied-or-queued on every live follower — the txn.Shipper hook fires
// at the commit point, under locks that failover must wait for, so a
// promotion always drains every acknowledged entry onto the new leader's
// device before it serves. When a leader's device dies (wear-out past the
// store's retry budget, capacity degraded, or a fenced redo log), the
// group promotes a follower by replaying and recovering its device with
// the standard crash-recovery scan. When the last replica dies, the
// group live-migrates its records into the surviving groups while writes
// continue (see migrate.go).
//
// Serving goes through the one shard router (internal/shard): each Group
// is a shard.Shard, the cluster embeds a shard.Router built over its
// groups, and the router's hash picks a key's home group. A drained group
// forwards to its redirect target itself — a pure function of the key over
// a stable redirect set — so re-routing after migration needs no routing
// table and no extra locks on the serving path.
package replica

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"e2nvm/internal/kvstore"
	"e2nvm/internal/nvm"
	"e2nvm/internal/shard"
	"e2nvm/internal/txn"
)

// Sentinel errors. All construction and serving errors wrap one of these
// (or a kvstore/txn/nvm sentinel), so callers classify with errors.Is.
var (
	// ErrNoGroups reports a cluster constructed over an empty group list.
	ErrNoGroups = errors.New("replica: need at least one group")
	// ErrNotCrashSafe reports a leader store opened without CrashSafe:
	// without a redo log there is no commit point to ship.
	ErrNotCrashSafe = errors.New("replica: leader store is not crash-safe")
	// ErrGeometry reports a follower device whose segment geometry differs
	// from its leader's — shipped home addresses would be meaningless.
	ErrGeometry = errors.New("replica: follower device geometry mismatch")
	// ErrGroupDown reports an operation on a group whose every replica has
	// died with no healthy groups left to migrate into. Reads still serve
	// from the dead leader's surviving content; writes fail.
	ErrGroupDown = errors.New("replica: group is down")
)

// GroupSpec describes one replica set: a crash-safe serving store plus
// zero or more follower devices with identical geometry (same segment
// size and count, and — for a follower's recovered store to converge
// byte-identically — the same initial content as the leader's device).
type GroupSpec struct {
	Leader    *kvstore.Store
	Followers []*nvm.Device
	// Opts configures stores recovered over follower devices at
	// promotion. CrashSafe is forced on (the promoted leader must ship).
	Opts kvstore.Options
}

// Config tunes the cluster.
type Config struct {
	// QueueDepth bounds each follower's in-flight ship queue (default 64).
	// A full queue applies backpressure to the leader's commit path rather
	// than dropping entries: "queued" is part of the ack contract.
	QueueDepth int
}

// Cluster owns a set of replicated keyspace groups: construction, Close,
// health sweeps, status and device accessors. Serving — Put, Get, GetInto,
// Delete, Scan, Len, Scrub, Retrain, NeedsRetrain — is the embedded
// router's, over the groups as shards. Methods are safe for
// concurrent use; Close is not (callers stop traffic first, as with
// closing any store).
type Cluster struct {
	*shard.Router
	groups []*Group
	cfg    Config
	migWG  sync.WaitGroup
	closed atomic.Bool
}

// New wires the groups into a cluster: follower apply loops start, and
// every leader's txn manager gets its ship hook installed. The spec
// slices are not retained.
func New(specs []GroupSpec, cfg Config) (*Cluster, error) {
	if len(specs) == 0 {
		return nil, ErrNoGroups
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	c := &Cluster{cfg: cfg}
	for gi, spec := range specs {
		if spec.Leader == nil || spec.Leader.TxnManager() == nil {
			c.Close()
			return nil, fmt.Errorf("replica: group %d: %w", gi, ErrNotCrashSafe)
		}
		opts := spec.Opts
		opts.CrashSafe = true
		g := &Group{c: c, id: gi, opts: opts}
		g.drain.downErr = fmt.Errorf("replica: group %d has no replicas and no migration targets: %w", gi, ErrGroupDown)
		ldev := spec.Leader.Device()
		lead := &node{dev: ldev, store: spec.Leader}
		lead.role.Store(roleLeader)
		g.nodes = append(g.nodes, lead)
		for fi, fdev := range spec.Followers {
			if fdev.SegmentSize() != ldev.SegmentSize() || fdev.NumSegments() != ldev.NumSegments() {
				c.Close()
				return nil, fmt.Errorf("replica: group %d follower %d: %w", gi, fi, ErrGeometry)
			}
			mgr, _, err := txn.NewManager(fdev, kvstore.LogSlots, kvstore.LogMaxEntries)
			if err != nil {
				c.Close()
				return nil, err
			}
			if err := mgr.Format(); err != nil {
				c.Close()
				return nil, err
			}
			f := &node{dev: fdev, mgr: mgr, queue: make(chan shipEntry, cfg.QueueDepth)}
			f.role.Store(roleFollower)
			f.wg.Add(1)
			go f.applyLoop(fdev.SegmentSize())
			g.nodes = append(g.nodes, f)
		}
		c.groups = append(c.groups, g)
		spec.Leader.TxnManager().SetShipper(g.shipperFor())
	}
	shards := make([]shard.Shard, len(c.groups))
	for i, g := range c.groups {
		shards[i] = g
	}
	router, err := shard.New(shards)
	if err != nil {
		c.Close()
		return nil, err
	}
	c.Router = router
	return c, nil
}

// CheckHealth sweeps the cluster for conditions failure-driven handling
// has not observed yet: leaders whose Health reports Degraded fail over
// proactively, and draining groups whose migrator died (its targets were
// failing) get a fresh one. Returns the joined errors of any group that
// could not be made healthy.
func (c *Cluster) CheckHealth() error {
	var errs []error
	for _, g := range c.groups {
		if st := g.leaderStore(); st != nil && st.Health().Degraded {
			if err := g.failoverFrom(st); err != nil {
				errs = append(errs, err)
			}
		}
		if g.state.Load() != stateDraining {
			continue
		}
		g.drain.mu.Lock()
		relaunch := !g.drain.migRunning && g.drain.migErr != nil
		if relaunch {
			g.drain.migRunning = true
			g.drain.migErr = nil
		}
		g.drain.mu.Unlock()
		if relaunch {
			c.migWG.Add(1)
			go g.migrate()
		}
	}
	return errors.Join(errs...)
}

// Quiesce blocks until in-flight background work — migrations and every
// serving store's async retrain — has completed.
func (c *Cluster) Quiesce() {
	c.migWG.Wait()
	c.Router.Quiesce()
}

// Close stops replication: waits out migrations, closes every follower
// queue and joins the apply goroutines, and detaches the ship hooks.
// Serving traffic must have stopped; Close is idempotent.
func (c *Cluster) Close() {
	if !c.closed.CompareAndSwap(false, true) {
		return
	}
	c.migWG.Wait()
	for _, g := range c.groups {
		g.mu.Lock()
		if g.state.Load() == stateActive {
			if st := g.nodes[g.leader].store; st != nil && st.TxnManager() != nil {
				st.TxnManager().SetShipper(nil)
			}
		}
		for _, n := range g.nodes {
			if n.queue != nil && !n.closed {
				n.closed = true
				close(n.queue)
			}
			n.wg.Wait()
		}
		g.mu.Unlock()
	}
}

// Role names for Status.
const (
	RoleLeader   = "leader"
	RoleFollower = "follower"
	RoleDead     = "dead"
)

// Group state names for Status.
const (
	StateActive   = "active"
	StateDraining = "draining"
	StateDrained  = "drained"
	StateDown     = "down"
)

// ReplicaStatus describes one node of a group.
type ReplicaStatus struct {
	Role    string
	Shipped uint64 // entries enqueued to this follower
	Applied uint64 // entries durably applied
	Lag     uint64 // Shipped - Applied: queued but not yet applied
}

// GroupStatus describes one group's replication state.
type GroupStatus struct {
	Group     int
	State     string
	Failovers uint64
	// Migrated and Lost count records the migrator moved out of (resp.
	// could not read from) a draining source.
	Migrated uint64
	Lost     uint64
	Replicas []ReplicaStatus
}

// Status snapshots every group's role, lag, and migration counters.
func (c *Cluster) Status() []GroupStatus {
	out := make([]GroupStatus, len(c.groups))
	for i, g := range c.groups {
		// Bases are loaded before the raw counters: the raw atomics are
		// monotonic and each base is a past raw value, so this order can
		// never observe base > raw even racing with ResetCounters.
		fb, mb, lb := g.failoverBase.Load(), g.migratedBase.Load(), g.migLostBase.Load()
		gs := GroupStatus{
			Group:     i,
			Failovers: g.failovers.Load() - fb,
			Migrated:  g.migrated.Load() - mb,
			Lost:      g.migLost.Load() - lb,
		}
		switch g.state.Load() {
		case stateActive:
			gs.State = StateActive
		case stateDraining:
			gs.State = StateDraining
		case stateDrained:
			gs.State = StateDrained
		default:
			gs.State = StateDown
		}
		g.mu.RLock()
		for _, n := range g.nodes {
			rs := ReplicaStatus{Shipped: n.shipped.Load(), Applied: n.applied.Load()}
			rs.Lag = rs.Shipped - rs.Applied
			switch n.role.Load() {
			case roleLeader:
				rs.Role = RoleLeader
			case roleFollower:
				rs.Role = RoleFollower
			default:
				rs.Role = RoleDead
			}
			gs.Replicas = append(gs.Replicas, rs)
		}
		g.mu.RUnlock()
		out[i] = gs
	}
	return out
}

// ResetCounters rebases the failover and migration counters that Status
// reports, so a metrics reset on the owning store starts the cluster's
// counters from zero too. The raw atomics are left untouched:
// drain bookkeeping derives live record counts from the raw migrated
// counter, which must keep its absolute value.
func (c *Cluster) ResetCounters() {
	for _, g := range c.groups {
		g.failoverBase.Store(g.failovers.Load())
		g.migratedBase.Store(g.migrated.Load())
		g.migLostBase.Store(g.migLost.Load())
	}
}

// activeGroupIDs snapshots the ids of groups currently active, excluding
// self — the healthy migration targets at a drain's start.
func (c *Cluster) activeGroupIDs(self int) []int {
	var ids []int
	for i, g := range c.groups {
		if i != self && g.state.Load() == stateActive {
			ids = append(ids, i)
		}
	}
	return ids
}

// LeaderDevice returns the device behind group g's serving store — the
// target fault injection should aim at to exercise the group's current
// leader. Nil once the group has drained.
func (c *Cluster) LeaderDevice(g int) *nvm.Device {
	if st := c.Serving(g); st != nil {
		return st.Device()
	}
	return nil
}

// GroupDevices returns group g's devices — leader first, then followers
// in spec order — for per-group wear and energy accounting.
func (c *Cluster) GroupDevices(g int) []*nvm.Device {
	gr := c.groups[g]
	gr.mu.RLock()
	defer gr.mu.RUnlock()
	out := make([]*nvm.Device, len(gr.nodes))
	for i, n := range gr.nodes {
		out[i] = n.dev
	}
	return out
}
