package experiments

import (
	"fmt"

	"e2nvm/internal/core"
	"e2nvm/internal/kvstore"
	"e2nvm/internal/nvm"
	"e2nvm/internal/stats"
	"e2nvm/internal/workload"
)

func init() { register("fig13", Fig13) }

// Fig13 reproduces Figure 13: the average updated-bits ratio and total
// memory energy for a grid of memory segment sizes × memory pool sizes on
// the mixture of all real-like workloads. The paper's conclusion: the
// smaller the segment size relative to the pool, the lower the ratio and
// the energy (more placement choices per written byte).
func Fig13(cfg RunConfig) (*Result, error) {
	segSizes := []int{16, 32, 64, 128}
	poolSizes := []int{
		cfg.scaleInt(128, 64),
		cfg.scaleInt(256, 96),
		cfg.scaleInt(512, 128),
		cfg.scaleInt(1024, 192),
	}
	writes := cfg.scaleInt(1200, 250)
	const k = 8

	table := stats.NewTable("segment_B", "pool_segments", "seg/pool_ratio", "updated_bits_ratio", "energy_pJ/write")
	for _, segSize := range segSizes {
		bits := segSize * 8
		per := cfg.scaleInt(400, 120)
		mix, err := workload.Mixture("mixture",
			workload.AmazonAccessLike(per, bits, cfg.Seed),
			workload.MNISTLike(per, bits, cfg.Seed+1),
			workload.PubMedLike(per, bits, cfg.Seed+2),
			workload.CIFARLike(per, bits, cfg.Seed+3),
		)
		if err != nil {
			return nil, err
		}
		mix = mix.Shuffled(cfg.Seed + 4)
		trainN := per
		if trainN > len(mix.Items)/2 {
			trainN = len(mix.Items) / 2
		}
		model, err := core.Train(mix.Items[:trainN], core.Config{
			InputBits: bits, K: k, LatentDim: 10, HiddenDim: 48,
			Epochs: 8, JointEpochs: 1, Seed: cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		for _, pool := range poolSizes {
			seedImgs := make([][]byte, pool)
			for i := range seedImgs {
				seedImgs[i] = toBytes(mix.Items[i%len(mix.Items)], segSize)
			}
			items := make([][]byte, writes)
			for i := range items {
				items[i] = toBytes(mix.Items[(trainN+i)%len(mix.Items)], segSize)
			}
			dev, err := seededDevice(nvm.DefaultConfig(segSize, pool), seedImgs)
			if err != nil {
				return nil, err
			}
			p, err := kvstore.NewClusteredAllocator(model, k, dev, addrRange(pool))
			if err != nil {
				return nil, err
			}
			dev.ResetStats()
			if _, err := runPlacement(dev, p, items, pool*3/4); err != nil {
				return nil, err
			}
			s := dev.Stats()
			ratio := float64(s.BitsFlipped) / float64(s.BitsWritten)
			table.AddRow(segSize, pool,
				float64(segSize)/float64(pool*segSize),
				ratio, s.EnergyPJ/float64(s.Writes))
		}
	}
	return &Result{
		ID:    "fig13",
		Title: "Updated-bits ratio and energy vs segment size × pool size (mixture workload)",
		Table: table,
		Notes: []string{
			fmt.Sprintf("%d writes per cell, k=%d, mixture of Amazon/MNIST/PubMed/CIFAR-like", writes, k),
			"expected shape: ratio and energy fall as the pool grows relative to the segment size",
		},
	}, nil
}
