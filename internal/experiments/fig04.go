package experiments

import (
	"fmt"
	"time"

	"e2nvm/internal/core"
	"e2nvm/internal/kvstore"
	"e2nvm/internal/nvm"
	"e2nvm/internal/pnw"
	"e2nvm/internal/stats"
	"e2nvm/internal/workload"
)

func init() { register("fig04", Fig4) }

// Fig4 reproduces Figure 4: preprocessing/training latency and resulting
// bit flips as the feature count (bits per item) grows, for PNW's two
// modes (raw K-means, PCA+K-means) and E2-NVM's VAE-based clustering on
// MNIST-like data with 20 clusters. The paper's findings: raw K-means
// latency explodes beyond a few thousand features; PCA+K-means is fast but
// flips more bits; the VAE is both fast and most accurate.
func Fig4(cfg RunConfig) (*Result, error) {
	dims := []int{32, 64, 128, 256, 512, 1024, 2048}
	n := cfg.scaleInt(500, 80)
	const k = 20

	table := stats.NewTable("features",
		"kmeans_ms", "pca+kmeans_ms", "e2nvm_ms",
		"kmeans_flips/item", "pca+kmeans_flips/item", "e2nvm_flips/item")

	for _, dim := range dims {
		ds := workload.MNISTLike(2*n, dim, cfg.Seed+int64(dim))
		train := ds.Items[:n]
		test := toBytesAll(ds.Items[n:], dim/8)
		seedImgs := toBytesAll(train, dim/8)

		// --- PNW raw K-means ---
		t0 := time.Now() // lint:allow deepdeterminism — Figure 4 reports wall-clock training time
		kmRaw, err := pnw.Train(train, pnw.Config{K: k, Mode: pnw.KMeansOnly, Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		rawMs := float64(time.Since(t0).Microseconds()) / 1e3 // lint:allow deepdeterminism — Figure 4 reports wall-clock training time

		// --- PNW PCA + K-means ---
		t0 = time.Now() // lint:allow deepdeterminism — Figure 4 reports wall-clock training time
		kmPCA, err := pnw.Train(train, pnw.Config{K: k, Mode: pnw.PCAKMeans, PCADims: 10, Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		pcaMs := float64(time.Since(t0).Microseconds()) / 1e3 // lint:allow deepdeterminism — Figure 4 reports wall-clock training time

		// --- E2-NVM VAE + K-means ---
		t0 = time.Now() // lint:allow deepdeterminism — Figure 4 reports wall-clock training time
		e2, err := core.Train(train, core.Config{
			InputBits: dim, K: k, LatentDim: 10, HiddenDim: 48,
			Epochs: 6, JointEpochs: 1, Seed: cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		vaeMs := float64(time.Since(t0).Microseconds()) / 1e3 // lint:allow deepdeterminism — Figure 4 reports wall-clock training time

		flips := func(model kvstore.Predictor) (float64, error) {
			dev, err := seededDevice(nvm.DefaultConfig(dim/8, n), seedImgs)
			if err != nil {
				return 0, err
			}
			p, err := kvstore.NewClusteredAllocator(model, k, dev, addrRange(n))
			if err != nil {
				return 0, err
			}
			dev.ResetStats()
			per, err := runPlacement(dev, p, test, n/2)
			if err != nil {
				return 0, err
			}
			return stats.Mean(per), nil
		}
		fRaw, err := flips(pnwAdapter{kmRaw})
		if err != nil {
			return nil, err
		}
		fPCA, err := flips(pnwAdapter{kmPCA})
		if err != nil {
			return nil, err
		}
		fVAE, err := flips(e2)
		if err != nil {
			return nil, err
		}
		table.AddRow(dim, rawMs, pcaMs, vaeMs, fRaw, fPCA, fVAE)
	}
	return &Result{
		ID:    "fig04",
		Title: "Bit flips and training latency vs feature count (E2-NVM vs PNW)",
		Table: table,
		Notes: []string{
			fmt.Sprintf("MNIST-like, %d training items, k=%d; dims 32..2048 (paper sweeps to 16384 on a GPU)", n, k),
			"expected shape: raw K-means time grows superlinearly with features; PCA+K-means flips > raw; VAE fastest at high dims with fewest flips",
		},
	}, nil
}
