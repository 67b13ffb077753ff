// Package shard hash-partitions the keyspace across N independent shards
// so that operations on different shards never contend on a lock, a
// device, or a model. It is the store's one serving stack: a shard is
// either a plain kvstore.Store or a replica.Group, and the router serves
// both through the same Shard interface.
//
// E2-NVM's placement state — VAE/K-means model, dynamic address pool,
// RB-tree index, device zone, redo log — partitions cleanly by keyspace:
// a key's placement depends only on its own value and the free segments of
// the shard it hashes to, so per-shard models preserve every per-segment
// bit-flip and endurance invariant while the aggregate store scales with
// the shard count (the same observation Predict-and-Write exploits with
// per-group clustering pools).
//
// The router itself is stateless apart from the shard table: routing is a
// pure hash of the key, so Put/Get/GetInto/Delete add no locks and no
// allocations on top of the per-shard serving path.
package shard

import (
	"errors"
	"sync"
	"sync/atomic"

	"e2nvm/internal/kvstore"
)

// ErrNoStores reports a router constructed over an empty shard list.
var ErrNoStores = errors.New("shard: need at least one store")

// Shard is one keyspace partition as the router sees it. *kvstore.Store
// satisfies it directly; *replica.Group satisfies it by forwarding to its
// current leader (or, once its replicas have all died, to the groups its
// keyspace migrated into).
type Shard interface {
	Put(key uint64, value []byte) error
	GetInto(key uint64, dst []byte) ([]byte, bool, error)
	Delete(key uint64) (bool, error)
	// Scrub examines up to n segments of the shard's serving medium; see
	// kvstore.Store.Scrub.
	Scrub(n int) (kvstore.ScrubReport, error)
	// NextInto returns the smallest live key in [lo, hi] the shard itself
	// still holds, with its value copied into dst; see
	// kvstore.Store.NextInto.
	NextInto(lo, hi uint64, dst []byte) (key uint64, value []byte, ok bool, err error)
	Len() int
	// Serving returns the store that serves the shard right now — the one
	// whose counters, capacity, scrub cursor and model describe it — or nil
	// once the shard's keyspace has drained into other shards.
	Serving() *kvstore.Store
}

// Router routes operations across independent shards by key hash.
type Router struct {
	shards []Shard

	// scrubUnits counts the Scrub remainder units handed out so far; the
	// next call's remainder starts where the previous one stopped (see
	// Scrub).
	scrubUnits atomic.Uint64
}

// New builds a router over the given shards. The slice is copied; len 1 is
// valid and makes every point operation a thin delegation.
func New(shards []Shard) (*Router, error) {
	if len(shards) == 0 {
		return nil, ErrNoStores
	}
	return &Router{shards: append([]Shard(nil), shards...)}, nil
}

// N returns the shard count.
func (r *Router) N() int { return len(r.shards) }

// Serving returns the store currently serving shard i, or nil once the
// shard has drained; see Shard.Serving.
func (r *Router) Serving(i int) *kvstore.Store { return r.shards[i].Serving() }

// mix64 is the SplitMix64 finalizer: a full-avalanche permutation of the
// key space, so dense sequential keys still spread uniformly over shards.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Mix64 exposes the router's key permutation so layers above (the replica
// cluster) route and re-route with the same hash: the low bits pick a
// key's home group exactly like Of, and the untouched high bits are free
// for an independent second-level choice such as a migration target.
func Mix64(x uint64) uint64 { return mix64(x) }

// Of returns the shard index serving key. It sits inside every routed
// operation, so it must stay inlinable (mix64 folds into it).
//
// lint:inline
func (r *Router) Of(key uint64) int {
	if len(r.shards) == 1 {
		return 0
	}
	return int(mix64(key) % uint64(len(r.shards)))
}

// Put routes the write to key's shard.
//
// lint:hotpath
func (r *Router) Put(key uint64, value []byte) error {
	return r.shards[r.Of(key)].Put(key, value)
}

// Get routes the read to key's shard, allocating the returned value.
//
// lint:hotpath
func (r *Router) Get(key uint64) ([]byte, bool, error) {
	return r.shards[r.Of(key)].GetInto(key, nil)
}

// GetInto routes the zero-alloc read to key's shard.
//
// lint:hotpath
func (r *Router) GetInto(key uint64, dst []byte) ([]byte, bool, error) {
	return r.shards[r.Of(key)].GetInto(key, dst)
}

// Delete routes the delete to key's shard.
//
// lint:hotpath
func (r *Router) Delete(key uint64) (bool, error) {
	return r.shards[r.Of(key)].Delete(key)
}

// Scan calls fn for each key in [lo, hi] in ascending global key order,
// merging the shards' ordered streams. Each element is pulled from its
// shard at visit time (Shard.NextInto), so the result is not one atomic
// snapshot, the callback runs with no store lock held, and the value slice
// is only valid during the callback.
//
// Two shards present the same key only while a replica group's keyspace is
// migrating (the record has been copied into its target and not yet
// dropped from the source). The rule then is exact: the key is emitted
// once, with the value a routed GetInto returns — the read path already
// knows which copy is authoritative — and skipped if that read finds it
// deleted.
func (r *Router) Scan(lo, hi uint64, fn func(key uint64, value []byte) bool) error {
	type cursor struct {
		key uint64
		val []byte
		ok  bool
	}
	curs := make([]cursor, len(r.shards))
	advance := func(i int, from uint64) error {
		k, v, ok, err := r.shards[i].NextInto(from, hi, curs[i].val[:0])
		curs[i] = cursor{key: k, val: v, ok: ok}
		return err
	}
	for i := range curs {
		if err := advance(i, lo); err != nil {
			return err
		}
	}
	var dup []byte
	for {
		best, shared := -1, false
		for i := range curs {
			if !curs[i].ok {
				continue
			}
			if best < 0 || curs[i].key < curs[best].key {
				best, shared = i, false
			} else if curs[i].key == curs[best].key {
				shared = true
			}
		}
		if best < 0 {
			return nil
		}
		k, v, live := curs[best].key, curs[best].val, true
		if shared {
			var err error
			if dup, live, err = r.GetInto(k, dup[:0]); err != nil {
				return err
			}
			v = dup
		}
		if live && !fn(k, v) {
			return nil
		}
		if k >= hi || k == ^uint64(0) {
			// k was the global minimum, so every other shard's next key is
			// also past hi: the scan is complete.
			return nil
		}
		for i := range curs {
			if curs[i].ok && curs[i].key == k {
				if err := advance(i, k+1); err != nil {
					return err
				}
			}
		}
	}
}

// Len sums live keys over all shards.
func (r *Router) Len() int {
	n := 0
	for _, sh := range r.shards {
		n += sh.Len()
	}
	return n
}

// serving returns the stores currently serving, skipping drained shards.
func (r *Router) serving() []*kvstore.Store {
	out := make([]*kvstore.Store, 0, len(r.shards))
	for _, sh := range r.shards {
		if st := sh.Serving(); st != nil {
			out = append(out, st)
		}
	}
	return out
}

// Scrub examines up to n segments in total, splitting the budget evenly
// across the shards that still have a serving store. The remainder units
// are handed out round-robin, starting where the previous call's remainder
// ended: with a budget smaller than the shard count the even share rounds
// to zero, and a fixed remainder assignment would scrub the first shards
// forever while later shards' zones rot unexamined. Each store also keeps
// its own segment cursor, so repeated calls sweep every shard's whole
// zone. Each shard scrubs through its own Scrub, so a replica group fails
// over around a leader that dies mid-pass exactly as it does for a Put.
// n <= 0 examines nothing. The aggregated report is returned; on error the
// partial report and the first error are.
func (r *Router) Scrub(n int) (kvstore.ScrubReport, error) {
	var agg kvstore.ScrubReport
	live := make([]Shard, 0, len(r.shards))
	for _, sh := range r.shards {
		if sh.Serving() != nil {
			live = append(live, sh)
		}
	}
	if n <= 0 || len(live) == 0 {
		return agg, nil
	}
	per, rem := n/len(live), n%len(live)
	start := int((r.scrubUnits.Add(uint64(rem)) - uint64(rem)) % uint64(len(live)))
	for i, sh := range live {
		quota := per
		if (i-start+len(live))%len(live) < rem {
			quota++
		}
		if quota == 0 {
			continue
		}
		rep, err := sh.Scrub(quota)
		agg.Add(rep)
		if err != nil {
			return agg, err
		}
	}
	return agg, nil
}

// NeedsRetrain reports whether any serving store's pool is running low.
func (r *Router) NeedsRetrain() bool {
	for _, sh := range r.shards {
		if st := sh.Serving(); st != nil && st.NeedsRetrain() {
			return true
		}
	}
	return false
}

// Retrain retrains every serving store's model concurrently (each trains
// on its own device zone only) and returns the joined errors, if any.
// Shards keep serving while their retrain is in flight — see
// kvstore.Store.Retrain for the per-shard contract.
func (r *Router) Retrain() error {
	stores := r.serving()
	errs := make([]error, len(stores))
	var wg sync.WaitGroup
	for i, st := range stores {
		wg.Add(1)
		go func(i int, st *kvstore.Store) {
			defer wg.Done()
			errs[i] = st.Retrain()
		}(i, st)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Quiesce blocks until every serving store's in-flight background retrain
// has completed; see kvstore.Store.Quiesce.
func (r *Router) Quiesce() {
	for _, st := range r.serving() {
		st.Quiesce()
	}
}
