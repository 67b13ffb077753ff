package replica

import (
	"errors"
	"sync"
	"sync/atomic"

	"e2nvm/internal/kvstore"
	"e2nvm/internal/nvm"
	"e2nvm/internal/txn"
)

// Node roles. A node is born leader or follower; death (its device or log
// wore out, or it failed to promote) is terminal.
const (
	roleFollower int32 = iota
	roleLeader
	roleDead
)

// Group lifecycle states. Transitions only move right: active → draining →
// drained, or active → down when a dead group has no migration targets.
const (
	stateActive int32 = iota
	stateDraining
	stateDrained
	stateDown
)

// shipEntry is one committed transaction in flight to a follower: the
// addresses plus the images concatenated into a single buffer. One entry
// is built per commit and shared read-only by every follower's queue.
type shipEntry struct {
	id    uint64
	addrs []int
	data  []byte
}

// node is one replica of a group's keyspace: a device plus either a full
// serving store (leader) or an apply-side txn manager (follower).
type node struct {
	dev   *nvm.Device
	store *kvstore.Store // non-nil once the node has (ever) been leader
	mgr   *txn.Manager   // follower apply manager; unused after promotion

	role    atomic.Int32
	shipped atomic.Uint64 // entries enqueued to this follower
	applied atomic.Uint64 // entries durably applied by this follower

	// queue carries shipped entries to applyLoop. Closed exactly once —
	// at promotion or cluster close — under the group's write lock;
	// closed tracks that so the two sites cannot double-close.
	queue  chan shipEntry
	closed bool
	wg     sync.WaitGroup
}

// applyLoop drains the ship queue, applying each entry crash-atomically
// through the follower's own redo log. A failed apply (the follower's
// device or log wore out) marks the node dead; the loop keeps draining so
// shipper sends never block on a dead follower, discarding entries until
// the queue is closed.
func (n *node) applyLoop(segSize int) {
	defer n.wg.Done()
	for e := range n.queue {
		if n.role.Load() != roleFollower {
			continue
		}
		images := make([][]byte, len(e.addrs))
		for i := range e.addrs {
			images[i] = e.data[i*segSize : (i+1)*segSize]
		}
		if err := n.mgr.ApplyShipped(e.id, e.addrs, images); err != nil {
			n.role.Store(roleDead)
			continue
		}
		n.applied.Add(1)
	}
}

// drainState is a draining group's migration protocol state; see
// migrate.go for the protocol.
type drainState struct {
	// redirect and source are written once — under the group's write lock,
	// before state publishes stateDraining/stateDown — and are immutable
	// afterwards, so the serving paths read them without any lock. downErr
	// is built at construction, so the down paths return it without
	// locking or allocating.
	redirect []int
	source   *kvstore.Store
	downErr  error

	// mu guards the fields below it (the lockdiscipline convention).
	mu         sync.Mutex
	tombs      map[uint64]struct{}
	migRunning bool
	migErr     error
}

// Group is one keyspace partition: a replica set with one serving leader,
// or — once every replica has died — a draining source whose records are
// migrating into the other groups.
type Group struct {
	c    *Cluster
	id   int
	opts kvstore.Options

	state     atomic.Int32
	failovers atomic.Uint64
	migrated  atomic.Uint64
	migLost   atomic.Uint64

	// Reported counters are the raw atomics net of these base snapshots,
	// so Cluster.ResetCounters can zero what Status reports without
	// disturbing the raw values (drain bookkeeping derives live record
	// counts from the raw migrated counter).
	failoverBase atomic.Uint64
	migratedBase atomic.Uint64
	migLostBase  atomic.Uint64

	// drain carries the migration fields; see migrate.go.
	drain drainState

	// nodes is built at construction and never reassigned; the mutable
	// per-replica state lives in each node's own atomics.
	nodes []*node

	// mu orders serving operations (read lock, held across the leader
	// store call) against failover (write lock). Holding the read lock
	// across the store operation is what makes an acknowledged write
	// durable on the replica set: promotion cannot begin until every
	// in-flight commit has shipped.
	mu     sync.RWMutex
	leader int // index into nodes; valid while state == stateActive
}

// shipperFor builds the commit-point observer for the group's current
// leader. It runs under the leader's txn lock, inside an operation that
// holds g.mu: the node list and roles it reads cannot be mutated
// concurrently (failover requires the write lock).
func (g *Group) shipperFor() txn.Shipper {
	segSize := g.nodes[0].dev.SegmentSize()
	return func(id uint64, addrs []int, images [][]byte) {
		var e shipEntry
		for _, n := range g.nodes {
			if n.role.Load() != roleFollower {
				continue
			}
			if e.data == nil {
				e = shipEntry{id: id, addrs: append([]int(nil), addrs...)}
				e.data = make([]byte, 0, len(images)*segSize)
				for _, img := range images {
					e.data = append(e.data, img...)
				}
			}
			n.queue <- e
			n.shipped.Add(1)
		}
	}
}

// deviceDead classifies an operation error as the leader's medium dying —
// wear-out that survived the store's internal retire-and-retry machinery,
// capacity degraded past the threshold, or a redo log with no usable
// slots left (every slot of a fenced log zone retires) — as opposed to an
// ordinary full store or a caller error, which failover cannot fix
// (followers hold the same data).
func deviceDead(err error) bool {
	return errors.Is(err, nvm.ErrWornOut) ||
		errors.Is(err, kvstore.ErrDegraded) ||
		errors.Is(err, txn.ErrLogFull)
}

// failoverFrom demotes the leader the caller observed failing and
// promotes a follower (or, with none left, starts draining the keyspace).
// The failed store identifies the observation: if another operation
// already failed over, the current leader differs and this is a no-op.
// Returns nil when the group is serving again in some form (new leader or
// draining); an error only when the group is terminally down.
func (g *Group) failoverFrom(failed *kvstore.Store) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.state.Load() != stateActive || g.nodes[g.leader].store != failed {
		return nil
	}
	return g.promoteLocked()
}

// promoteLocked retires the current leader and installs the first live
// follower in its place: stop shipping, drain the candidate's queue so
// every acknowledged entry is on its device, then rebuild a serving store
// over that device with the standard crash-recovery scan (the follower's
// own log replays its committed tail). Falls through to migration when no
// follower survives. Callers hold g.mu.
func (g *Group) promoteLocked() error {
	old := g.nodes[g.leader]
	old.store.TxnManager().SetShipper(nil)
	old.role.Store(roleDead)
	for i, cand := range g.nodes {
		if cand.role.Load() != roleFollower {
			continue
		}
		if !cand.closed {
			cand.closed = true
			close(cand.queue)
		}
		cand.wg.Wait()
		if cand.role.Load() != roleFollower {
			continue // died applying its final entries
		}
		st, err := kvstore.RecoverWith(cand.dev, old.store.Model(), g.opts)
		if err != nil {
			cand.role.Store(roleDead)
			continue
		}
		cand.store = st
		cand.role.Store(roleLeader)
		g.leader = i
		st.TxnManager().SetShipper(g.shipperFor())
		g.failovers.Add(1)
		return nil
	}
	return g.startDrainLocked(old.store)
}

// Put serves one write, following the group through failover and
// migration: a write that dies with the leader's device is retried on the
// promoted leader (or re-routed into the drain path), and a drained group
// forwards to the group its keyspace moved to, so the caller only ever
// sees an error the replica set could not absorb. On a nil return the
// record is durable on the leader and applied or queued on every live
// follower.
//
// lint:hotpath
func (g *Group) Put(key uint64, value []byte) error {
	for {
		switch g.state.Load() {
		case stateDrained:
			g = g.target(key)
			continue
		case stateDown:
			return g.drain.downErr
		case stateDraining:
			return g.drainPut(key, value)
		}
		g.mu.RLock()
		if g.state.Load() != stateActive {
			g.mu.RUnlock()
			continue
		}
		st := g.nodes[g.leader].store
		err := st.Put(key, value)
		g.mu.RUnlock()
		if err == nil || !deviceDead(err) {
			return err
		}
		// Failover is the cold branch: it runs once per device death,
		// rebuilding a store over the survivor. lint:allow hotpathalloc
		if ferr := g.failoverFrom(st); ferr != nil {
			return ferr
		}
	}
}

// putIfAbsent is Put with put-if-absent semantics, used by migrators
// copying records into this group. The keys are always foreign (hashed to
// the migrating group, not this one), so a group that is itself draining
// or drained forwards without consulting its own tombstones.
func (g *Group) putIfAbsent(key uint64, value []byte) (bool, error) {
	for {
		switch g.state.Load() {
		case stateDraining, stateDrained:
			g = g.target(key)
			continue
		case stateDown:
			return false, g.drain.downErr
		}
		g.mu.RLock()
		if g.state.Load() != stateActive {
			g.mu.RUnlock()
			continue
		}
		st := g.nodes[g.leader].store
		wrote, err := st.PutIfAbsent(key, value)
		g.mu.RUnlock()
		if err == nil || !deviceDead(err) {
			return wrote, err
		}
		if ferr := g.failoverFrom(st); ferr != nil {
			return false, ferr
		}
	}
}

// GetInto serves one read into dst (grown as needed). Reads never trigger
// failover: fenced and worn segments still serve their stored content, so
// a read error is a data problem (ErrCorrupt), not a routing problem.
//
// lint:hotpath
func (g *Group) GetInto(key uint64, dst []byte) ([]byte, bool, error) {
	for {
		switch g.state.Load() {
		case stateDrained:
			g = g.target(key)
			continue
		case stateDraining:
			return g.drainGet(key, dst)
		case stateDown:
			return g.drain.source.GetInto(key, dst)
		}
		g.mu.RLock()
		if g.state.Load() != stateActive {
			g.mu.RUnlock()
			continue
		}
		v, ok, err := g.nodes[g.leader].store.GetInto(key, dst)
		g.mu.RUnlock()
		return v, ok, err
	}
}

// Delete serves one delete, with the same failover-and-retry contract as
// Put (invalidation writes die with the device too).
//
// lint:hotpath
func (g *Group) Delete(key uint64) (bool, error) {
	for {
		switch g.state.Load() {
		case stateDrained:
			g = g.target(key)
			continue
		case stateDown:
			return false, g.drain.downErr
		case stateDraining:
			return g.drainDelete(key)
		}
		g.mu.RLock()
		if g.state.Load() != stateActive {
			g.mu.RUnlock()
			continue
		}
		st := g.nodes[g.leader].store
		ok, err := st.Delete(key)
		g.mu.RUnlock()
		if err == nil || !deviceDead(err) {
			return ok, err
		}
		// Failover is the cold branch: it runs once per device death,
		// rebuilding a store over the survivor. lint:allow hotpathalloc
		if ferr := g.failoverFrom(st); ferr != nil {
			return false, ferr
		}
	}
}

// Scrub runs one scrub pass of up to n segments on the leader, with Put's
// failover-and-retry contract: a pass that dies with the leader's device
// (relocation writes and the redo log wear out too) is retried on the
// promoted leader. A group with no active leader has no healthy medium
// left to scrub, so it reports an empty pass.
func (g *Group) Scrub(n int) (kvstore.ScrubReport, error) {
	for {
		g.mu.RLock()
		if g.state.Load() != stateActive {
			g.mu.RUnlock()
			return kvstore.ScrubReport{}, nil
		}
		st := g.nodes[g.leader].store
		rep, err := st.Scrub(n)
		g.mu.RUnlock()
		if err == nil || !deviceDead(err) {
			return rep, err
		}
		if ferr := g.failoverFrom(st); ferr != nil {
			return rep, ferr
		}
	}
}

// NextInto returns the smallest live key in [lo, hi] that this group
// itself still holds: the leader's while active, the dead source's while
// down, and while draining the source's records not yet superseded by a
// client write (tombstoned keys live in the target group, whose own
// NextInto presents them). A drained group holds nothing.
func (g *Group) NextInto(lo, hi uint64, dst []byte) (uint64, []byte, bool, error) {
	if st := g.leaderStore(); st != nil {
		return st.NextInto(lo, hi, dst)
	}
	switch g.state.Load() {
	case stateDown:
		return g.drain.source.NextInto(lo, hi, dst)
	case stateDraining:
		for {
			k, v, ok, err := g.drain.source.NextInto(lo, hi, dst)
			if err != nil || !ok {
				return k, v, ok, err
			}
			g.drain.mu.Lock()
			drained := g.drain.tombs == nil
			_, tomb := g.drain.tombs[k]
			g.drain.mu.Unlock()
			if drained || (tomb && k == ^uint64(0)) {
				return 0, v[:0], false, nil
			}
			if !tomb {
				return k, v, true, nil
			}
			lo, dst = k+1, v
		}
	}
	return 0, dst[:0], false, nil
}

// Len counts the live keys this group itself still holds. During a drain
// both copies of a mid-flight key exist, so the draining group contributes
// its source count net of migrated and superseded records — exact when
// idle, approximate while the migrator races clients.
func (g *Group) Len() int {
	if st := g.leaderStore(); st != nil {
		return st.Len()
	}
	switch g.state.Load() {
	case stateDraining:
		g.drain.mu.Lock()
		dup := int(g.migrated.Load()) + len(g.drain.tombs)
		g.drain.mu.Unlock()
		return max(g.drain.source.Len()-dup, 0)
	case stateDown:
		return g.drain.source.Len()
	}
	return 0
}

// leaderStore returns the serving store while the group is active, else
// nil.
func (g *Group) leaderStore() *kvstore.Store {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if g.state.Load() != stateActive {
		return nil
	}
	return g.nodes[g.leader].store
}

// Serving returns whichever store still answers reads for the group's
// remaining records: the active leader, or the draining/down source. Nil
// once drained.
func (g *Group) Serving() *kvstore.Store {
	if st := g.leaderStore(); st != nil {
		return st
	}
	switch g.state.Load() {
	case stateDraining, stateDown:
		return g.drain.source
	}
	return nil
}
