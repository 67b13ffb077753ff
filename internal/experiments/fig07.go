package experiments

import (
	"fmt"

	"e2nvm/internal/core"
	"e2nvm/internal/kvstore"
	"e2nvm/internal/nvm"
	"e2nvm/internal/stats"
	"e2nvm/internal/workload"
)

func init() { register("fig07", Fig7) }

// Fig7 reproduces Figure 7: the DRAM footprint of the dynamic address pool
// and the resulting write energy as the number of indexed memory segments
// grows (PubMed dataset). The paper's conclusion: 100K–1M indexed segments
// give near-optimal energy at a few MB of DRAM; beyond that, diminishing
// returns.
func Fig7(cfg RunConfig) (*Result, error) {
	const segSize = 16 // 128-bit segments keep the biggest pool affordable
	const k = 8
	segCounts := []int{
		cfg.scaleInt(1000, 200),
		cfg.scaleInt(5000, 500),
		cfg.scaleInt(20000, 1000),
		cfg.scaleInt(50000, 2000),
		cfg.scaleInt(100000, 4000),
	}
	writes := cfg.scaleInt(2000, 300)

	// One dataset draw for every pool size: the same prototypes seed the
	// pools and drive the writes, so rows differ only in pool size. The
	// write stream is skewed toward a few hot topics (real update traffic
	// is skewed), which is what drains small pools' hot clusters.
	maxSegs := segCounts[len(segCounts)-1]
	content := workload.PubMedLike(maxSegs, segSize*8, cfg.Seed+7)
	writeSrc := workload.PubMedLike(8*writes, segSize*8, cfg.Seed+7) // same prototypes (same seed)
	skewed := skewByLabel(writeSrc, writes)

	// One model trained on a fixed-size sample of the contents serves all
	// pool sizes; the pool size varies only the placement choices.
	sampleN := cfg.scaleInt(400, 150)
	if sampleN > maxSegs {
		sampleN = maxSegs
	}
	model, err := core.Train(content.Items[:sampleN], core.Config{
		InputBits: segSize * 8, K: k, LatentDim: 8,
		Epochs: 10, JointEpochs: 2, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}

	table := stats.NewTable("segments", "dap_footprint_KB", "avg_flips/write", "avg_energy_pJ/write", "fallbacks")
	for _, n := range segCounts {
		seedImgs := toBytesAll(content.Items[:n], segSize)
		items := toBytesAll(skewed, segSize)

		dev, err := seededDevice(nvm.DefaultConfig(segSize, n), seedImgs)
		if err != nil {
			return nil, err
		}
		p, err := kvstore.NewClusteredAllocator(model, k, dev, addrRange(n))
		if err != nil {
			return nil, err
		}
		footprintKB := float64(p.Pool().FootprintBytes()) / 1024
		dev.ResetStats()
		if _, err := runPlacement(dev, p, items, n*3/4); err != nil {
			return nil, err
		}
		s := dev.Stats()
		table.AddRow(n,
			footprintKB,
			float64(s.BitsFlipped)/float64(s.Writes),
			s.EnergyPJ/float64(s.Writes),
			p.Fallbacks(),
		)
	}
	return &Result{
		ID:    "fig07",
		Title: "DAP memory footprint and energy vs number of indexed segments (PubMed)",
		Table: table,
		Notes: []string{
			fmt.Sprintf("segment size %d B, %d skewed writes per pool size, k=%d", segSize, writes, k),
			"expected shape: footprint grows linearly with segments; energy per write falls as the pool offers more placement choices, then flattens",
		},
	}, nil
}

// skewByLabel draws n items from ds with class frequency ∝ 1/(rank+1), so
// a few hot classes dominate the write stream.
func skewByLabel(ds *workload.Dataset, n int) [][]float64 {
	byLabel := map[int][][]float64{}
	var labels []int
	for i, it := range ds.Items {
		l := ds.Labels[i]
		if _, ok := byLabel[l]; !ok {
			labels = append(labels, l)
		}
		byLabel[l] = append(byLabel[l], it)
	}
	weights := make([]float64, len(labels))
	total := 0.0
	for i := range labels {
		weights[i] = 1 / float64(i+1)
		total += weights[i]
	}
	var out [][]float64
	next := make([]int, len(labels))
	for len(out) < n {
		// Round-robin proportional selection keeps this deterministic.
		for i, l := range labels {
			count := int(weights[i] / total * float64(n))
			if count < 1 {
				count = 1
			}
			for c := 0; c < count && len(out) < n; c++ {
				items := byLabel[l]
				out = append(out, items[next[i]%len(items)])
				next[i]++
			}
		}
	}
	return out
}
