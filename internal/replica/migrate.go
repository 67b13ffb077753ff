// Live keyspace migration: when a group's last replica dies, its records
// drain into the surviving groups while clients keep writing.
//
// The protocol is target-first with tombstones:
//
//   - At drain start the group snapshots the then-active groups as its
//     redirect set; a key's migration target is a pure hash over that set,
//     so routing after the drain needs no per-key table.
//   - Client writes during the drain go straight to the target group; a
//     tombstone marks the source copy stale. The migrator copies with
//     PutIfAbsent, so a stale source record can never clobber a newer
//     client write regardless of interleaving.
//   - Client deletes must hold the drain lock across the target delete:
//     delete is the one operation where "absent in the target" and "not
//     yet migrated" are indistinguishable, and an unsynchronized migrator
//     could resurrect the deleted record.
//   - Reads try the target first, then the untombstoned source. A read
//     racing the end of the drain can see a source record one write stale
//     — the bounded-staleness window the handoff allows.
//
// The redirect graph is acyclic: a group only redirects to groups that
// were active when it began draining, and a drained group never serves
// again, so chains strictly follow drain start order and every route
// terminates.
package replica

import (
	"errors"

	"e2nvm/internal/kvstore"
	"e2nvm/internal/shard"
)

// startDrainLocked begins migrating the group's keyspace out of source
// (its last living store) into the groups still active. Callers hold
// g.mu; the atomic state store publishes the migration fields to readers
// that never take that lock.
func (g *Group) startDrainLocked(source *kvstore.Store) error {
	targets := g.c.activeGroupIDs(g.id)
	g.drain.source = source
	if len(targets) == 0 {
		g.state.Store(stateDown)
		return g.drain.downErr
	}
	g.drain.redirect = targets
	g.drain.mu.Lock()
	g.drain.tombs = make(map[uint64]struct{})
	g.drain.migRunning = true
	g.drain.mu.Unlock()
	g.state.Store(stateDraining)
	g.c.migWG.Add(1)
	go g.migrate()
	return nil
}

// target returns the group serving key after this group's drain. The
// choice hashes the bits the router's Of leaves untouched, so keys of one
// drained group spread evenly over its redirect set. The target may itself
// have drained since the set was snapshotted; its serving methods forward
// in turn.
func (g *Group) target(key uint64) *Group {
	r := g.drain.redirect
	return g.c.groups[r[int((shard.Mix64(key)>>32)%uint64(len(r)))]]
}

// drainPut serves a client write during the drain: write to the target,
// then tombstone the source copy. No drain lock is needed across the
// target write — the migrator's PutIfAbsent cannot overwrite it — but the
// tombstone comes after the write so a migrator that observes it can
// trust the target copy exists.
func (g *Group) drainPut(key uint64, value []byte) error {
	if err := g.target(key).Put(key, value); err != nil {
		return err
	}
	g.drain.mu.Lock()
	if g.drain.tombs != nil {
		g.drain.tombs[key] = struct{}{}
	}
	g.drain.mu.Unlock()
	return nil
}

// drainGet serves a client read during the drain: target first (it holds
// every value written since the drain began), then the source unless
// tombstoned. The tombstone re-checks bracket the source read so a
// concurrent overwrite or completed drain flips the read back to the
// authoritative target instead of returning the stale source copy.
func (g *Group) drainGet(key uint64, dst []byte) ([]byte, bool, error) {
	tgt := g.target(key)
	v, ok, err := tgt.GetInto(key, dst)
	if ok || err != nil {
		return v, ok, err
	}
	g.drain.mu.Lock()
	drained := g.drain.tombs == nil
	_, tomb := g.drain.tombs[key]
	g.drain.mu.Unlock()
	if drained || tomb {
		// A client write or the finished drain put the authoritative copy
		// in the target, possibly since the look above.
		return tgt.GetInto(key, dst)
	}
	v, ok, err = g.drain.source.GetInto(key, dst)
	if !ok || err != nil {
		return v, ok, err
	}
	g.drain.mu.Lock()
	_, tomb = g.drain.tombs[key]
	g.drain.mu.Unlock()
	if tomb || g.state.Load() != stateDraining {
		return tgt.GetInto(key, dst)
	}
	return v, ok, err
}

// drainDelete serves a client delete during the drain. The drain lock is
// held across the target delete and the tombstone write: without it, a
// migrator between the two could copy the source record back into the
// target, resurrecting a deleted key.
func (g *Group) drainDelete(key uint64) (bool, error) {
	g.drain.mu.Lock()
	defer g.drain.mu.Unlock()
	// The target is always a group that started draining after this one
	// (redirect sets exclude the owner and chains follow drain start
	// order), so holding our drain.mu across its serving call cannot close
	// a cycle. lint:allow lockorder
	had, err := g.target(key).Delete(key)
	if err != nil {
		return false, err
	}
	if g.drain.tombs == nil {
		return had, nil // the drain finished first: the target held the only copy
	}
	if _, tomb := g.drain.tombs[key]; !tomb {
		// Not superseded yet: the source copy (if any) is still live.
		// Delete it best-effort — the index entry always clears; the
		// device invalidation may fail on the dying medium, which is why
		// the tombstone, not the source, is authoritative from here on.
		if _, ok, gerr := g.drain.source.Get(key); gerr == nil && ok {
			had = true
		}
		_, _ = g.drain.source.Delete(key)
	}
	g.drain.tombs[key] = struct{}{}
	return had, nil
}

// migrate walks the source index and copies every record that has not
// been superseded into its target group, then marks the group drained.
// It runs concurrently with client traffic; the per-key drain lock
// section is the only synchronization it needs (see the package comment
// for why PutIfAbsent carries the rest). Corrupt source records — the
// dying device may have eaten some — are counted as lost and skipped.
func (g *Group) migrate() {
	defer g.c.migWG.Done()
	src := g.drain.source
	var buf []byte
	lo := uint64(0)
	for {
		k, v, ok, err := src.NextInto(lo, ^uint64(0), buf)
		if err != nil {
			if errors.Is(err, kvstore.ErrCorrupt) {
				g.migLost.Add(1)
				if k == ^uint64(0) {
					break
				}
				lo = k + 1
				continue
			}
			g.finishMigrate(err)
			return
		}
		if !ok {
			break
		}
		buf = v
		g.drain.mu.Lock()
		var perr error
		if _, tomb := g.drain.tombs[k]; !tomb {
			// Cross-instance by construction: the copy lands on a different
			// group (a key's target is never its draining owner), so this
			// drain.mu -> Group.mu chain is acyclic. lint:allow lockorder
			wrote, err := g.target(k).putIfAbsent(k, v)
			perr = err
			if wrote {
				g.migrated.Add(1)
			}
		}
		g.drain.mu.Unlock()
		if perr != nil {
			g.finishMigrate(perr)
			return
		}
		if k == ^uint64(0) {
			break
		}
		lo = k + 1
	}
	g.finishMigrate(nil)
}

// finishMigrate records the migration outcome. On success the group
// becomes drained and drops its tombstones; on failure it stays draining
// (the drain paths keep serving) and Cluster.CheckHealth can relaunch the
// migrator.
func (g *Group) finishMigrate(err error) {
	if err == nil {
		g.state.Store(stateDrained)
	}
	g.drain.mu.Lock()
	g.drain.migRunning = false
	g.drain.migErr = err
	if err == nil {
		g.drain.tombs = nil
	}
	g.drain.mu.Unlock()
}
