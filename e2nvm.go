// Package e2nvm is a memory-aware storage layer that improves the energy
// efficiency and write endurance of non-volatile memories (NVMs) by
// steering writes to memory segments whose current content is similar — in
// Hamming distance — to the value being written, so that differential
// writes flip fewer PCM cells.
//
// It is a from-scratch Go reproduction of "E2-NVM: A Memory-Aware Write
// Scheme to Improve Energy Efficiency and Write Endurance of NVMs using
// Variational Autoencoders" (EDBT 2023). The placement decision is made by
// a variational autoencoder jointly trained with K-means clustering over
// the bit images of free memory segments; a cluster-to-memory dynamic
// address pool tracks free segments per cluster; undersized items are
// fitted to the model with configurable padding strategies, including an
// LSTM-based learned padding.
//
// Because real Optane/PCM hardware is not assumed, the library ships a
// cycle- and energy-modeled PCM device simulator that counts bit flips,
// cache-line writes, per-segment and per-bit wear, and models start-gap
// wear leveling. The simulator is also what the benchmark harness uses to
// regenerate the paper's figures (see EXPERIMENTS.md).
//
// # Quick start
//
//	store, err := e2nvm.Open(e2nvm.Config{SegmentSize: 256, NumSegments: 4096})
//	if err != nil { ... }
//	err = store.Put(42, []byte("value"))
//	v, ok, err := store.Get(42)
//	m := store.Metrics() // bit flips, energy, latency, wear
package e2nvm

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"e2nvm/internal/core"
	"e2nvm/internal/dap"
	"e2nvm/internal/hotcache"
	"e2nvm/internal/kvstore"
	"e2nvm/internal/nvm"
	"e2nvm/internal/padding"
	"e2nvm/internal/replica"
	"e2nvm/internal/shard"
)

// Placement selects the write-placement policy.
type Placement int

// Placement policies.
const (
	// PlacementE2NVM steers each write to a free segment with similar
	// content (the paper's scheme). This is the default.
	PlacementE2NVM Placement = iota
	// PlacementArbitrary picks any free segment for new keys and updates
	// in place — the behaviour of conventional stores, kept as a
	// baseline.
	PlacementArbitrary
)

// PadLocation mirrors the paper's padding positions for undersized values.
type PadLocation int

// Padding locations.
const (
	PadEnd PadLocation = iota
	PadBegin
	PadMiddle
	PadEdges
)

// PadType mirrors the paper's padding-content strategies.
type PadType int

// Padding types.
const (
	PadInputBased PadType = iota // Bernoulli with the item's own 1-density (default)
	PadZero
	PadOne
	PadRandom
	PadDatasetBased
	PadMemoryBased
	PadLearned // sliding-window LSTM (§4.1.3)
)

// Config configures Open.
type Config struct {
	// SegmentSize is the NVM segment size in bytes (default 256, one
	// Optane block).
	SegmentSize int
	// NumSegments is the size of the managed memory pool (default 1024),
	// split across Shards.
	NumSegments int

	// Shards hash-partitions the keyspace across this many independent
	// store instances, each owning its own device zone, model, address
	// pool, index, and (in crash-safe mode) redo log, so operations on
	// different shards never contend. Point operations route by key hash;
	// Scan merges the shards' ordered streams; Metrics, Health, Scrub, and
	// Retrain aggregate across shards. Default 1: a single store, the
	// unsharded behaviour.
	Shards int

	// ReplicationFactor replicates each shard across this many devices:
	// one serving leader plus ReplicationFactor-1 followers that apply the
	// leader's redo stream. A Put is acknowledged only once durable on the
	// leader and applied-or-queued on every live follower; when a leader's
	// device wears out, the shard fails over to a follower, and when a
	// shard's last replica dies its keyspace live-migrates into the
	// surviving shards (see Replication and Health). Follower devices are
	// seeded with the same content as their leader but draw independent
	// fault sequences. Replication needs the redo log, so CrashSafe is
	// forced on when ReplicationFactor > 1. Default 1: no replication, the
	// exact unreplicated write path.
	ReplicationFactor int

	// CacheEnabled puts a lock-free hot-key read cache (internal/hotcache,
	// HotRing-style) in front of the serving layers: hot Gets are served
	// from DRAM with zero device reads, Puts and Deletes invalidate
	// write-through before they are acknowledged, and the cache's hotness
	// statistics drive the hot/cold wear-steering placement policy (hot
	// keys to low-wear segment clusters, cold keys to worn ones). Default
	// false: the exact uncached read and placement path.
	CacheEnabled bool
	// EmulateDeviceLatency makes the simulated devices impose their
	// modeled read/write latencies on the host clock (a busy-spin to the
	// modeled nanoseconds), so wall-clock benchmarks measure device time
	// rather than just the simulator's host-side softcosts. Accounting
	// (Stats latency totals) is identical either way. Off by default;
	// tests and experiments keep the fast accounting-only model.
	EmulateDeviceLatency bool

	// CacheBytes bounds the cache's DRAM footprint when CacheEnabled
	// (default 4 MiB).
	CacheBytes int

	// Clusters is the number of content clusters K; 0 selects K with the
	// elbow method.
	Clusters int
	// TrainEpochs is the VAE pretraining epoch count (default 15).
	TrainEpochs int
	// LatentDim is the VAE latent width (default 10, as in the paper).
	LatentDim int
	// HiddenDim is the VAE hidden-layer width (default SegmentSize*2,
	// i.e. a quarter of the input bits, minimum 32). Large segments make
	// the default encoder quadratic-feeling to train; capping the hidden
	// width keeps big-segment stores openable where clustering quality
	// matters less than geometry.
	HiddenDim int

	// Placement selects the placement policy.
	Placement Placement
	// PadLocation and PadType select the padding strategy for values
	// narrower than a segment.
	PadLocation PadLocation
	PadType     PadType

	// WearLevelPeriod is the simulated controller's start-gap swap period
	// ψ (0 disables wear leveling).
	WearLevelPeriod int
	// TrackBitWear enables per-bit wear counters (costly; used for wear
	// CDFs).
	TrackBitWear bool
	// AutoRetrain retrains the model in the background when a cluster's
	// free list runs low.
	AutoRetrain bool
	// CrashSafe routes every write through a redo-log transaction (the
	// role PMDK transactions play in the paper), making writes atomic
	// across torn cache lines at the cost of logging write amplification.
	CrashSafe bool

	// EnduranceWrites overrides the simulated per-cell write endurance
	// budget (default 1e8). Lifetime experiments set it low so wear-out
	// is reachable in minutes.
	EnduranceWrites float64
	// Fault configures the device's seeded cell wear-out process; the
	// zero value disables probabilistic faults.
	Fault FaultConfig
	// VerifyWrites models a controller that reads back after
	// programming, so writes landing on stuck cells fail loudly with
	// ErrWornOut instead of silently storing faulty bits.
	VerifyWrites bool
	// PutRetries bounds how many alternative segments a Put tries when
	// verify-after-write finds the target worn (default 8).
	PutRetries int
	// DisableRetirement keeps worn segments in circulation: writes
	// surface ErrWornOut but nothing is fenced off (baseline mode for
	// lifetime experiments).
	DisableRetirement bool
	// DegradeThreshold is the fraction of data segments that may be
	// retired before allocation failures escalate from ErrNoSpace to
	// ErrDegraded (default 0.1).
	DegradeThreshold float64

	// Seed makes training and simulation deterministic.
	Seed int64

	// SeedContent, when non-nil, initializes every segment's content from
	// the reader-like generator before training; by default segments are
	// filled with uniformly random bytes under Seed.
	SeedContent func(addr int, segment []byte)
}

func (c Config) withDefaults() Config {
	if c.SegmentSize <= 0 {
		c.SegmentSize = 256
	}
	if c.NumSegments <= 0 {
		c.NumSegments = 1024
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.ReplicationFactor <= 0 {
		c.ReplicationFactor = 1
	}
	if c.ReplicationFactor > 1 {
		c.CrashSafe = true // replication ships the redo log; there must be one
	}
	if c.CacheEnabled && c.CacheBytes <= 0 {
		c.CacheBytes = 4 << 20
	}
	if c.TrainEpochs <= 0 {
		c.TrainEpochs = 15
	}
	if c.LatentDim <= 0 {
		c.LatentDim = 10
	}
	return c
}

// shardStarts returns the global segment address where each shard's zone
// begins, plus a final sentinel: shard i owns [starts[i], starts[i+1]).
// The remainder segments go to the first NumSegments%Shards shards.
func (c Config) shardStarts() []int {
	per, rem := c.NumSegments/c.Shards, c.NumSegments%c.Shards
	starts := make([]int, c.Shards+1)
	for i := 0; i < c.Shards; i++ {
		size := per
		if i < rem {
			size++
		}
		starts[i+1] = starts[i] + size
	}
	return starts
}

func (c Config) padLocation() padding.Location {
	switch c.PadLocation {
	case PadBegin:
		return padding.Begin
	case PadMiddle:
		return padding.Middle
	case PadEdges:
		return padding.Edges
	default:
		return padding.End
	}
}

func (c Config) padType() padding.Type {
	switch c.PadType {
	case PadZero:
		return padding.Zero
	case PadOne:
		return padding.One
	case PadRandom:
		return padding.Random
	case PadDatasetBased:
		return padding.DatasetBased
	case PadMemoryBased:
		return padding.MemoryBased
	case PadLearned:
		return padding.Learned
	default:
		return padding.InputBased
	}
}

// deviceConfig builds a device configuration over numSegs segments. The
// fault process seed is offset per device so every device draws an
// independent wear-out sequence; offset 0 (shard 0's leader) keeps the
// configured seed, so a single-shard store is bit-identical to the
// pre-sharding behaviour.
func (c Config) deviceConfig(faultOffset, numSegs int) nvm.Config {
	devCfg := nvm.DefaultConfig(c.SegmentSize, numSegs)
	devCfg.WearLevelPeriod = c.WearLevelPeriod
	devCfg.TrackBitWear = c.TrackBitWear
	if c.EnduranceWrites > 0 {
		devCfg.EnduranceWrites = c.EnduranceWrites
	}
	devCfg.Fault = c.Fault.toInternal()
	devCfg.Fault.Seed += int64(faultOffset)
	devCfg.VerifyWrites = c.VerifyWrites
	devCfg.EmulateLatency = c.EmulateDeviceLatency
	return devCfg
}

// fillShardContent seeds dev with shard shardIdx's initial content.
// SeedContent callbacks receive global addresses, so a seeded workload is
// independent of the shard layout; the fill depends only on shardIdx, so
// a follower filled for the same shard starts byte-identical to its
// leader.
func (c Config) fillShardContent(dev *nvm.Device, shardIdx, start, numSegs int) error {
	if c.SeedContent != nil {
		buf := make([]byte, c.SegmentSize)
		for a := 0; a < numSegs; a++ {
			for i := range buf {
				buf[i] = 0
			}
			c.SeedContent(start+a, buf)
			if err := dev.FillSegment(a, buf); err != nil {
				return err
			}
		}
	} else {
		dev.Fill(rand.New(rand.NewSource(c.Seed + int64(shardIdx))))
	}
	return nil
}

// newShardDevice creates and seeds shard shardIdx's leader device, which
// owns global segments [start, start+numSegs).
func (c Config) newShardDevice(shardIdx, start, numSegs int) (*nvm.Device, error) {
	dev, err := nvm.NewDevice(c.deviceConfig(shardIdx, numSegs))
	if err != nil {
		return nil, err
	}
	if err := c.fillShardContent(dev, shardIdx, start, numSegs); err != nil {
		return nil, err
	}
	return dev, nil
}

// newFollowerDevice creates follower number f (0-based) of shard
// shardIdx: the leader's content seed, so the replica starts
// byte-identical, but a fault seed offset past every leader's, so each
// replica wears out independently.
func (c Config) newFollowerDevice(shardIdx, f, start, numSegs int) (*nvm.Device, error) {
	off := c.Shards + shardIdx*(c.ReplicationFactor-1) + f
	dev, err := nvm.NewDevice(c.deviceConfig(off, numSegs))
	if err != nil {
		return nil, err
	}
	if err := c.fillShardContent(dev, shardIdx, start, numSegs); err != nil {
		return nil, err
	}
	return dev, nil
}

func (c Config) storeOptions(placement kvstore.Placement, keyTemp func(uint64) dap.Temp) kvstore.Options {
	return kvstore.Options{
		Placement:         placement,
		AutoRetrain:       c.AutoRetrain,
		CrashSafe:         c.CrashSafe,
		PutRetries:        c.PutRetries,
		DisableRetirement: c.DisableRetirement,
		DegradeThreshold:  c.DegradeThreshold,
		KeyTemp:           keyTemp,
	}
}

// Store is an E2-NVM-managed persistent key/value store over one or more
// simulated PCM devices. With Config.Shards > 1 the keyspace is
// hash-partitioned across independent shards, each with its own device
// zone, model, pool, index, and redo log. With Config.ReplicationFactor >
// 1 each shard is additionally a replica set with leader failover and
// live keyspace migration (see Replication). All methods are safe for
// concurrent use.
type Store struct {
	kv      kv               // point serving: router, or the hot cache around it
	router  *shard.Router    // the one serving stack, over plain stores or replica groups
	cluster *replica.Cluster // non-nil iff ReplicationFactor > 1; owns the groups under router
	cache   *hotcache.Cache  // non-nil iff Config.CacheEnabled
	shards  []*kvstore.Store // the original leaders, for model and geometry inspection
	devs    []*nvm.Device    // devs[i] is shard i's original leader device
	starts  []int            // global segment ranges: shard i owns [starts[i], starts[i+1])
}

// kv is the surface the facade's point operations (and the batches built
// on them) are served through; shard.Router satisfies it, and so does the
// cache wrapped around one (cachedKV).
type kv interface {
	Put(key uint64, value []byte) error
	GetInto(key uint64, dst []byte) ([]byte, bool, error)
	Delete(key uint64) (bool, error)
}

// Open creates the simulated PCM device(s), seeds their contents, trains
// one E2-NVM model per shard, and returns a ready store. Shards open
// concurrently; each shard's training set is its own device zone.
func Open(cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	return openShards(cfg, func(i int, dev *nvm.Device, keyTemp func(uint64) dap.Temp) (*kvstore.Store, error) {
		modelCfg := core.Config{
			K:           cfg.Clusters,
			LatentDim:   cfg.LatentDim,
			HiddenDim:   cfg.HiddenDim,
			Epochs:      cfg.TrainEpochs,
			Seed:        cfg.Seed + int64(i),
			PadExplicit: true,
			PadLocation: cfg.padLocation(),
			PadType:     cfg.padType(),
		}
		return kvstore.Open(dev, modelCfg, cfg.storeOptions(cfg.placement(), keyTemp))
	})
}

func (c Config) placement() kvstore.Placement {
	if c.Placement == PlacementArbitrary {
		return kvstore.PlaceArbitrary
	}
	return kvstore.PlaceE2NVM
}

// openShards builds every shard's device and store (concurrently when
// sharded — model training dominates open time) and assembles the router.
// cfg must already have defaults applied.
func openShards(cfg Config, open func(i int, dev *nvm.Device, keyTemp func(uint64) dap.Temp) (*kvstore.Store, error)) (*Store, error) {
	if cfg.Shards > cfg.NumSegments {
		return nil, fmt.Errorf("%w: %d shards over %d segments: at least one segment per shard required", ErrConfig, cfg.Shards, cfg.NumSegments)
	}
	// The cache is built before the shards so its hotness statistics can be
	// threaded into every store's placement policy at open, avoiding any
	// post-open mutation of shared options.
	var cache *hotcache.Cache
	var keyTemp func(uint64) dap.Temp
	if cfg.CacheEnabled {
		var err error
		cache, err = hotcache.New(hotcache.Config{MaxBytes: cfg.CacheBytes})
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrConfig, err)
		}
		keyTemp = cacheKeyTemp(cache)
	}
	starts := cfg.shardStarts()
	devs := make([]*nvm.Device, cfg.Shards)
	stores := make([]*kvstore.Store, cfg.Shards)
	errs := make([]error, cfg.Shards)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dev, err := cfg.newShardDevice(i, starts[i], starts[i+1]-starts[i])
			if err != nil {
				errs[i] = err
				return
			}
			st, err := open(i, dev, keyTemp)
			if err != nil {
				errs[i] = err
				return
			}
			devs[i], stores[i] = dev, st
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	s := &Store{cache: cache, shards: stores, devs: devs, starts: starts}
	if cfg.ReplicationFactor > 1 {
		cluster, err := cfg.newCluster(stores, starts, keyTemp)
		if err != nil {
			return nil, err
		}
		s.cluster, s.router = cluster, cluster.Router
	} else {
		plain := make([]shard.Shard, len(stores))
		for i, st := range stores {
			plain[i] = st
		}
		router, err := shard.New(plain)
		if err != nil {
			return nil, err
		}
		s.router = router
	}
	s.kv = s.router
	if cache != nil {
		s.kv = cachedKV{next: s.router, cache: cache}
	}
	return s, nil
}

// Put stores value under key (the paper's PUT/UPDATE write path), routed
// to the key's shard. On a replicated store a nil return additionally
// means the write is durable on the shard's leader and applied or queued
// on every live follower. With the cache enabled, the key's cached value
// is invalidated after the store write and before Put returns, so a
// return from Put is the acknowledgement after which no read can serve
// the overwritten value.
func (s *Store) Put(key uint64, value []byte) error { return s.kv.Put(key, value) }

// PutBatch stores len(keys) key/value pairs in one call, each exactly as
// Put would, in index order: a later duplicate key wins, and one pair's
// failure does not abort the rest. values must be index-aligned with keys;
// misaligned slices return ErrBadBatch before any pair is applied. Pass
// errs (same length) to receive per-item outcomes, or nil to skip them;
// the returned error is the first failure by index.
func (s *Store) PutBatch(keys []uint64, values [][]byte, errs []error) error {
	if len(values) != len(keys) || (errs != nil && len(errs) != len(keys)) {
		return ErrBadBatch
	}
	var first error
	for i, k := range keys {
		err := s.kv.Put(k, values[i])
		if errs != nil {
			errs[i] = err
		}
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}

// GetBatch reads len(keys) values in one call, each exactly as GetInto
// would, in index order. Value i lands in dsts[i]'s backing array (grown
// only when too small) with its liveness in oks[i] — a missing key is
// oks[i] = false, not an error. dsts and oks must be index-aligned with
// keys (else ErrBadBatch, before any read); errs, when non-nil, receives
// per-item read errors, and the returned error is the first failure by
// index.
func (s *Store) GetBatch(keys []uint64, dsts [][]byte, oks []bool, errs []error) error {
	if len(dsts) != len(keys) || len(oks) != len(keys) || (errs != nil && len(errs) != len(keys)) {
		return ErrBadBatch
	}
	var first error
	for i, k := range keys {
		v, ok, err := s.kv.GetInto(k, dsts[i])
		dsts[i], oks[i] = v, ok
		if errs != nil {
			errs[i] = err
		}
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Get returns the value stored under key as a fresh caller-owned copy.
func (s *Store) Get(key uint64) ([]byte, bool, error) { return s.kv.GetInto(key, nil) }

// GetInto is Get writing the value into dst's backing array (grown only
// when too small), for callers that reuse one buffer across reads. It
// returns the resulting slice, which may share storage with dst. With the
// cache enabled, a hot key is served straight from DRAM.
func (s *Store) GetInto(key uint64, dst []byte) ([]byte, bool, error) {
	return s.kv.GetInto(key, dst)
}

// Delete removes key, recycling its segment into its shard's address pool.
// Like Put, the cached value (if any) is invalidated before Delete returns.
func (s *Store) Delete(key uint64) (bool, error) { return s.kv.Delete(key) }

// Scan visits keys in [lo, hi] in ascending order until fn returns false,
// merging the shards' ordered streams. The callback runs with no store
// lock held, so it may call back into the store; the value slice is only
// valid during the callback — copy it to retain it.
func (s *Store) Scan(lo, hi uint64, fn func(key uint64, value []byte) bool) error {
	return s.router.Scan(lo, hi, fn)
}

// Len returns the number of live keys across all shards.
func (s *Store) Len() int { return s.router.Len() }

// MaxValue returns the largest storable value in bytes.
func (s *Store) MaxValue() int { return s.shards[0].MaxValue() }

// Shards returns the number of independent shards serving the keyspace.
func (s *Store) Shards() int { return s.router.N() }

// Clusters returns the number of content clusters the model learned (the
// first shard's; with elbow-selected K, shards may differ).
func (s *Store) Clusters() int { return s.shards[0].Model().K() }

// NeedsRetrain reports whether any shard's cluster free list is running
// low.
func (s *Store) NeedsRetrain() bool { return s.router.NeedsRetrain() }

// Retrain synchronously retrains every shard's model on its device zone's
// current contents (concurrently across shards) and rebuilds the address
// pools. Serving continues while a shard retrains; see the kvstore layer
// for the exact snapshot contract.
func (s *Store) Retrain() error { return s.router.Retrain() }

// Quiesce blocks until in-flight background work — every shard's async
// retrain, and on a replicated store any live keyspace migration — has
// finished. Call it before tearing the store down, or in tests that
// assert on post-retrain or post-migration state.
func (s *Store) Quiesce() {
	if s.cluster != nil {
		s.cluster.Quiesce()
		return
	}
	s.router.Quiesce()
}

// Metrics is a snapshot of device- and store-level activity.
type Metrics struct {
	// Writes and Reads are device operation counts.
	Writes, Reads uint64
	// BitsFlipped is the number of PCM cells actually programmed; the
	// paper's headline metric. BitsWritten is the payload presented.
	BitsFlipped, BitsWritten uint64
	// EnergyPJ is the modeled device energy in picojoules.
	EnergyPJ float64
	// AvgWriteLatencyNs is the mean modeled write latency.
	AvgWriteLatencyNs float64
	// LinesWritten/LinesSkipped count 64 B cache lines the controller
	// wrote vs skipped as unchanged.
	LinesWritten, LinesSkipped uint64
	// MaxSegmentWrites is the hottest segment's write count.
	MaxSegmentWrites uint64
	// WearLevelMoves counts start-gap segment moves.
	WearLevelMoves uint64
	// Fallbacks counts placements served by a non-predicted cluster.
	Fallbacks uint64
	// Retrains counts completed model retrains.
	Retrains int
	// WornWrites counts writes that hit worn-out cells and were retried
	// or refused; RetiredSegments counts segments taken out of
	// circulation; Relocations counts live records Scrub moved to
	// healthy segments.
	WornWrites, RetiredSegments, Relocations uint64
	// StuckBits is the number of cells currently stuck device-wide;
	// FailedSegments counts segments fenced entirely.
	StuckBits, FailedSegments uint64
	// FlipsPerDataBit is BitsFlipped / BitsWritten (0 when nothing was
	// written) — Figure 12's metric.
	FlipsPerDataBit float64
	// Failovers counts leader promotions on a replicated store, and
	// MigratedRecords counts records live-migrated out of shards whose
	// replica sets died entirely. Both stay 0 when ReplicationFactor is 1.
	Failovers       uint64
	MigratedRecords uint64
	// CacheHits/CacheMisses count facade reads served from (resp. falling
	// through) the hot-key cache; CacheEvictions counts live values the
	// byte budget dropped. All stay 0 when CacheEnabled is false, and in
	// ShardMetrics entries (the cache fronts the whole keyspace, not one
	// shard).
	CacheHits, CacheMisses, CacheEvictions uint64
	// SteeredPlacements counts writes the hot/cold wear policy placed on
	// a different cluster than the model predicted (distinct from
	// Fallbacks, which counts empty-free-list detours).
	SteeredPlacements uint64
}

// metricsFrom derives one Metrics snapshot from raw device and store
// counters.
func metricsFrom(ds nvm.Stats, ss kvstore.Stats) Metrics {
	m := Metrics{
		Writes:            ds.Writes,
		Reads:             ds.Reads,
		BitsFlipped:       ds.BitsFlipped,
		BitsWritten:       ds.BitsWritten,
		EnergyPJ:          ds.EnergyPJ,
		LinesWritten:      ds.LinesWritten,
		LinesSkipped:      ds.LinesSkipped,
		MaxSegmentWrites:  ds.MaxSegmentWrites,
		WearLevelMoves:    ds.WearLevelMoves,
		Fallbacks:         ss.Fallbacks,
		SteeredPlacements: ss.Steered,
		Retrains:          ss.Retrains,
		WornWrites:        ss.WornWrites,
		RetiredSegments:   ss.Retired,
		Relocations:       ss.Relocations,
		StuckBits:         ds.StuckBits,
		FailedSegments:    ds.FailedSegments,
	}
	if ds.Writes > 0 {
		m.AvgWriteLatencyNs = ds.WriteLatencyNs / float64(ds.Writes)
	}
	if ds.BitsWritten > 0 {
		m.FlipsPerDataBit = float64(ds.BitsFlipped) / float64(ds.BitsWritten)
	}
	return m
}

// shardDevices returns every device that carries shard i's writes: its one
// device, or — replicated — its whole replica set (leaders, followers and
// dead replicas all spend real energy and wear).
func (s *Store) shardDevices(i int) []*nvm.Device {
	if s.cluster != nil {
		return s.cluster.GroupDevices(i)
	}
	return s.devs[i : i+1]
}

// shardStats is the one fold behind every metrics view: shard i's device
// counters summed over shardDevices, and the counters of the store
// currently serving it (zero once the shard has drained).
func (s *Store) shardStats(i int) (nvm.Stats, kvstore.Stats) {
	var ds nvm.Stats
	for _, dev := range s.shardDevices(i) {
		ds.Add(dev.Stats())
	}
	var ss kvstore.Stats
	if st := s.router.Serving(i); st != nil {
		ss = st.Stats()
	}
	return ds, ss
}

// replStatus snapshots each shard's replication state; nil when
// unreplicated, so callers range over it without asking.
func (s *Store) replStatus() []replica.GroupStatus {
	if s.cluster == nil {
		return nil
	}
	return s.cluster.Status()
}

// cacheStats snapshots the hot-key cache counters; zero when disabled.
func (s *Store) cacheStats() hotcache.Stats {
	if s.cache == nil {
		return hotcache.Stats{}
	}
	return s.cache.Stats()
}

// Metrics returns a snapshot of cumulative counters, aggregated over all
// shards: sums for the additive counters, the maximum for
// MaxSegmentWrites, a write-count-weighted mean for AvgWriteLatencyNs, and
// total-flips/total-bits for FlipsPerDataBit. Use ShardMetrics for the
// per-shard breakdown.
func (s *Store) Metrics() Metrics {
	var ds nvm.Stats
	var ss kvstore.Stats
	for i := range s.devs {
		d, st := s.shardStats(i)
		ds.Add(d)
		ss.Add(st)
	}
	m := metricsFrom(ds, ss)
	for _, gs := range s.replStatus() {
		m.Failovers += gs.Failovers
		m.MigratedRecords += gs.Migrated
	}
	cs := s.cacheStats()
	m.CacheHits, m.CacheMisses, m.CacheEvictions = cs.Hits, cs.Misses, cs.Evictions
	return m
}

// ShardMetrics returns each shard's own counter snapshot, index-aligned
// with the shard layout (shard i serves the keys hashing to it and owns
// global segments [i's zone]). On a replicated store an entry covers the
// shard's whole replica set — its true wear and energy bill — plus the
// counters of whichever store still serves it.
func (s *Store) ShardMetrics() []Metrics {
	out := make([]Metrics, len(s.devs))
	for i := range out {
		out[i] = metricsFrom(s.shardStats(i))
	}
	for i, gs := range s.replStatus() {
		out[i].Failovers, out[i].MigratedRecords = gs.Failovers, gs.Migrated
	}
	return out
}

// ResetMetrics zeroes the cumulative counters on every shard — the device
// counters, the store-level ones (Fallbacks, Retrains, WornWrites,
// RetiredSegments, Relocations, ...), the cache counters, and on a
// replicated store the failover and migration counters — so benchmarks
// that reset between phases measure only their own activity. Content, wear
// state, and cache residency are preserved.
func (s *Store) ResetMetrics() {
	for i := range s.devs {
		for _, dev := range s.shardDevices(i) {
			dev.ResetStats()
		}
		if st := s.router.Serving(i); st != nil {
			st.ResetStats()
		}
	}
	if s.cache != nil {
		s.cache.ResetCounters()
	}
	if s.cluster != nil {
		s.cluster.ResetCounters()
	}
}

// BitWear returns a copy of the per-bit flip counters in global segment
// order, or nil when Config.TrackBitWear was false. On a replicated store
// each shard's zone reports its current serving device (the original
// leader once the shard has drained); follower wear is aggregated in
// Metrics.
func (s *Store) BitWear() []uint32 {
	var out []uint32
	for i := range s.devs {
		w := s.servingDevice(i).BitWear()
		if w == nil {
			return nil
		}
		out = append(out, w...)
	}
	return out
}

// SegmentWrites returns per-segment write-operation counts in global
// segment order (per serving device when replicated, like BitWear).
func (s *Store) SegmentWrites() []uint64 {
	var out []uint64
	for i := range s.devs {
		out = append(out, s.servingDevice(i).SegmentWrites()...)
	}
	return out
}

// servingDevice returns the device currently backing shard i: whichever
// replica serves the shard now, falling back to the original leader once
// the shard has drained.
func (s *Store) servingDevice(i int) *nvm.Device {
	if st := s.router.Serving(i); st != nil {
		return st.Device()
	}
	return s.devs[i]
}

// String summarizes the store configuration.
func (s *Store) String() string {
	if rf := s.ReplicationFactor(); rf > 1 {
		return fmt.Sprintf("e2nvm.Store{shards: %d, rf: %d, segments: %d×%dB, k: %d}",
			len(s.devs), rf, s.starts[len(s.starts)-1], s.devs[0].SegmentSize(), s.Clusters())
	}
	if len(s.devs) == 1 {
		return fmt.Sprintf("e2nvm.Store{segments: %d×%dB, k: %d}",
			s.devs[0].NumSegments(), s.devs[0].SegmentSize(), s.Clusters())
	}
	return fmt.Sprintf("e2nvm.Store{shards: %d, segments: %d×%dB, k: %d}",
		len(s.devs), s.starts[len(s.starts)-1], s.devs[0].SegmentSize(), s.Clusters())
}
