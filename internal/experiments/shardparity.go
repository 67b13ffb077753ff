package experiments

import (
	"fmt"
	"math/rand"

	"e2nvm/internal/core"
	"e2nvm/internal/kvstore"
	"e2nvm/internal/nvm"
	"e2nvm/internal/shard"
	"e2nvm/internal/stats"
	"e2nvm/internal/workload"
)

func init() { register("exp-shard", ShardParity) }

// ShardParity checks that hash-sharding the keyspace preserves E2-NVM's
// placement quality: each shard trains its own model on its own device
// zone, so per-shard clustering should place writes as well as one global
// model does, and the aggregate flips-per-data-bit should stay flat as the
// shard count grows. This is the invariant that makes the sharded serving
// layer safe to use for energy experiments.
func ShardParity(cfg RunConfig) (*Result, error) {
	const segSize = 64
	const valSize = 32
	const k = 6
	segsPerShard := cfg.scaleInt(512, 96)
	ops := cfg.scaleInt(4000, 800)

	vg := workload.NewValueGen(valSize, k, 0.03, cfg.Seed)

	// run builds a router over `shards` stores with segsPerShard segments
	// each and drives the identical key/value workload through it; the
	// total capacity scales with the shard count so every configuration
	// sees the same per-shard load.
	run := func(shards int) (float64, error) {
		devs := make([]*nvm.Device, shards)
		stores := make([]shard.Shard, shards)
		for i := range stores {
			dev, err := nvm.NewDevice(nvm.DefaultConfig(segSize, segsPerShard))
			if err != nil {
				return 0, err
			}
			// Seed each zone with overwritten content from the same value
			// distribution, as the energy experiments do.
			r := rand.New(rand.NewSource(cfg.Seed + int64(i)))
			img := make([]byte, segSize)
			for a := 0; a < segsPerShard; a++ {
				copy(img[2:], vg.For(uint64(r.Intn(500))))
				if err := dev.FillSegment(a, img); err != nil {
					return 0, err
				}
			}
			st, err := kvstore.Open(dev, core.Config{
				K: k, LatentDim: 8, HiddenDim: 48, Epochs: 6, JointEpochs: 1,
				Seed: cfg.Seed + int64(i),
			}, kvstore.Options{})
			if err != nil {
				return 0, err
			}
			devs[i], stores[i] = dev, st
		}
		router, err := shard.New(stores)
		if err != nil {
			return 0, err
		}
		for _, dev := range devs {
			dev.ResetStats()
		}
		r := rand.New(rand.NewSource(cfg.Seed + 17))
		// Live keys occupy one segment each; cap the key space at half the
		// total capacity so the hash imbalance across shards never exhausts
		// a zone.
		keySpace := segsPerShard / 2 * shards
		for i := 0; i < ops*shards; i++ {
			key := uint64(r.Intn(keySpace))
			if r.Intn(10) == 0 {
				if _, err := router.Delete(key); err != nil {
					return 0, err
				}
				continue
			}
			if err := router.Put(key, vg.For(key)); err != nil {
				return 0, err
			}
		}
		var flips, bits uint64
		for _, dev := range devs {
			s := dev.Stats()
			flips += s.BitsFlipped
			bits += s.BitsWritten
		}
		if bits == 0 {
			return 0, fmt.Errorf("exp-shard: no data written")
		}
		return float64(flips) / float64(bits), nil
	}

	table := stats.NewTable("shards", "flips/databit", "delta_vs_1_%")
	var base float64
	for _, shards := range []int{1, 2, 4} {
		fpb, err := run(shards)
		if err != nil {
			return nil, err
		}
		if shards == 1 {
			base = fpb
		}
		table.AddRow(fmt.Sprintf("%d", shards), fpb, (fpb/base-1)*100)
	}
	return &Result{
		ID:    "exp-shard",
		Title: "Placement parity: flips per data bit vs shard count",
		Table: table,
		Notes: []string{
			fmt.Sprintf("%d segments × %d B per shard, %d ops per shard, k=%d", segsPerShard, segSize, ops, k),
			"expected shape: flips/databit stays within a few percent of the unsharded store at every shard count",
		},
	}, nil
}
