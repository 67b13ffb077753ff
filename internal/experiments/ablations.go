package experiments

import (
	"fmt"
	"time"

	"e2nvm/internal/bitvec"
	"e2nvm/internal/core"
	"e2nvm/internal/kvstore"
	"e2nvm/internal/nvm"
	"e2nvm/internal/stats"
	"e2nvm/internal/workload"
)

func init() {
	register("abl-search", AblationIntraClusterSearch)
	register("abl-joint", AblationJointTraining)
	register("abl-latent", AblationLatentDim)
	register("abl-diff", AblationDifferentialWrite)
}

func ablationSetup(cfg RunConfig, k int, trainCfg core.Config) (*core.Model, [][]byte, [][]byte, error) {
	const segSize = 32
	bits := segSize * 8
	n := cfg.scaleInt(400, 120)
	writes := cfg.scaleInt(800, 150)
	ds := workload.MNISTLike(n+writes, bits, cfg.Seed)
	trainCfg.InputBits = bits
	trainCfg.K = k
	if trainCfg.Seed == 0 {
		trainCfg.Seed = cfg.Seed
	}
	model, err := core.Train(ds.Items[:n], trainCfg)
	if err != nil {
		return nil, nil, nil, err
	}
	return model, toBytesAll(ds.Items[:n], segSize), toBytesAll(ds.Items[n:], segSize), nil
}

// AblationIntraClusterSearch validates the paper's §3.3.1 design decision:
// taking the *first* free address in the predicted cluster is nearly as
// good as exhaustively searching the cluster for the best Hamming match,
// at a small fraction of the cost.
func AblationIntraClusterSearch(cfg RunConfig) (*Result, error) {
	const k = 8
	model, seedImgs, items, err := ablationSetup(cfg, k, core.Config{
		LatentDim: 10, HiddenDim: 48, Epochs: 10, JointEpochs: 2,
	})
	if err != nil {
		return nil, err
	}
	segSize := len(seedImgs[0])
	n := len(seedImgs)

	runFirstFree := func() (float64, float64, error) {
		dev, err := seededDevice(nvm.DefaultConfig(segSize, n), seedImgs)
		if err != nil {
			return 0, 0, err
		}
		p, err := kvstore.NewClusteredAllocator(model, k, dev, addrRange(n))
		if err != nil {
			return 0, 0, err
		}
		dev.ResetStats()
		t0 := time.Now() // lint:allow deepdeterminism — measured placement latency is this ablation's output
		if _, err := runPlacement(dev, p, items, n/2); err != nil {
			return 0, 0, err
		}
		el := float64(time.Since(t0).Microseconds()) / float64(len(items)) // lint:allow deepdeterminism — measured placement latency is this ablation's output
		s := dev.Stats()
		return float64(s.BitsFlipped) / float64(s.Writes), el, nil
	}
	runBestMatch := func() (float64, float64, error) {
		dev, err := seededDevice(nvm.DefaultConfig(segSize, n), seedImgs)
		if err != nil {
			return 0, 0, err
		}
		// Exhaustive search scans every free segment in the predicted
		// cluster for the minimum Hamming distance.
		free := map[int][]int{}
		for a := 0; a < n; a++ {
			img, _ := dev.Peek(a)
			c := mustPredict(model.PredictBytes(img))
			free[c] = append(free[c], a)
		}
		dev.ResetStats()
		var live []int
		t0 := time.Now() // lint:allow deepdeterminism — measured placement latency is this ablation's output
		for _, item := range items {
			c := mustPredict(model.PredictBytes(item))
			cand := free[c]
			if len(cand) == 0 {
				for cc := 0; cc < k; cc++ {
					if len(free[cc]) > 0 {
						c = cc
						cand = free[cc]
						break
					}
				}
			}
			best, bestD := 0, 1<<30
			for i, a := range cand {
				img, _ := dev.Peek(a)
				if d := bitvec.HammingBytes(img, item); d < bestD {
					best, bestD = i, d
				}
			}
			addr := cand[best]
			free[c] = append(cand[:best], cand[best+1:]...)
			if _, err := dev.Write(addr, item); err != nil {
				return 0, 0, err
			}
			live = append(live, addr)
			if len(live) > n/2 {
				v := live[0]
				live = live[1:]
				img, _ := dev.Peek(v)
				fc := mustPredict(model.PredictBytes(img))
				free[fc] = append(free[fc], v)
			}
		}
		el := float64(time.Since(t0).Microseconds()) / float64(len(items)) // lint:allow deepdeterminism — measured placement latency is this ablation's output
		s := dev.Stats()
		return float64(s.BitsFlipped) / float64(s.Writes), el, nil
	}

	ffFlips, ffUs, err := runFirstFree()
	if err != nil {
		return nil, err
	}
	bmFlips, bmUs, err := runBestMatch()
	if err != nil {
		return nil, err
	}
	table := stats.NewTable("policy", "flips/write", "us/write")
	table.AddRow("first-free (paper)", ffFlips, ffUs)
	table.AddRow("exhaustive best-match", bmFlips, bmUs)
	return &Result{
		ID:    "abl-search",
		Title: "Ablation: first-free-in-cluster vs exhaustive intra-cluster search",
		Table: table,
		Notes: []string{
			fmt.Sprintf("best-match reaches %.0f%% of first-free's flips at %.1fx the placement cost",
				bmFlips/maxF(ffFlips, 1e-9)*100, bmUs/maxF(ffUs, 0.01)),
			"exhaustive search scales linearly with cluster size — the paper's first-free choice trades flips for O(1) placement",
		},
	}, nil
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// AblationJointTraining compares joint VAE+K-means fine-tuning against the
// sequential pipeline (VAE, then K-means on frozen latents).
func AblationJointTraining(cfg RunConfig) (*Result, error) {
	const k = 8
	table := stats.NewTable("training", "flips/write", "latent_SSE")
	for _, joint := range []bool{false, true} {
		tc := core.Config{LatentDim: 10, HiddenDim: 48, Epochs: 10, Seed: cfg.Seed}
		if joint {
			tc.JointEpochs = 4
		} else {
			tc.JointEpochs = -1 // explicit zero joint epochs
		}
		model, seedImgs, items, err := ablationSetup(cfg, k, tc)
		if err != nil {
			return nil, err
		}
		segSize := len(seedImgs[0])
		dev, err := seededDevice(nvm.DefaultConfig(segSize, len(seedImgs)), seedImgs)
		if err != nil {
			return nil, err
		}
		p, err := kvstore.NewClusteredAllocator(model, k, dev, addrRange(len(seedImgs)))
		if err != nil {
			return nil, err
		}
		dev.ResetStats()
		if _, err := runPlacement(dev, p, items, len(seedImgs)/2); err != nil {
			return nil, err
		}
		s := dev.Stats()
		name := "sequential (VAE then K-means)"
		if joint {
			name = "joint fine-tuning (paper)"
		}
		table.AddRow(name, float64(s.BitsFlipped)/float64(s.Writes), model.LatentSSE())
	}
	return &Result{
		ID:    "abl-joint",
		Title: "Ablation: joint VAE+K-means training vs sequential",
		Table: table,
		Notes: []string{
			"on well-separated synthetic data the cluster assignments (and thus flips) often coincide;",
			"the joint term's effect shows in the latent SSE — tighter clusters that are more robust when data drifts",
		},
	}, nil
}

// AblationLatentDim sweeps the VAE latent width (the paper uses ≈10).
func AblationLatentDim(cfg RunConfig) (*Result, error) {
	const k = 8
	table := stats.NewTable("latent_dim", "flips/write")
	for _, d := range []int{2, 4, 10, 20, 32} {
		model, seedImgs, items, err := ablationSetup(cfg, k, core.Config{
			LatentDim: d, HiddenDim: 48, Epochs: 10, JointEpochs: 2,
		})
		if err != nil {
			return nil, err
		}
		segSize := len(seedImgs[0])
		dev, err := seededDevice(nvm.DefaultConfig(segSize, len(seedImgs)), seedImgs)
		if err != nil {
			return nil, err
		}
		p, err := kvstore.NewClusteredAllocator(model, k, dev, addrRange(len(seedImgs)))
		if err != nil {
			return nil, err
		}
		dev.ResetStats()
		if _, err := runPlacement(dev, p, items, len(seedImgs)/2); err != nil {
			return nil, err
		}
		s := dev.Stats()
		table.AddRow(d, float64(s.BitsFlipped)/float64(s.Writes))
	}
	return &Result{
		ID:    "abl-latent",
		Title: "Ablation: VAE latent dimensionality",
		Table: table,
		Notes: []string{"the paper's ≈10-dimensional latent is in the flat region; very small latents lose cluster structure"},
	}, nil
}

// AblationDifferentialWrite quantifies the value of differential
// (data-comparison) writes under E2-NVM placement, versus a naive
// controller that reprograms every cell.
func AblationDifferentialWrite(cfg RunConfig) (*Result, error) {
	const k = 8
	model, seedImgs, items, err := ablationSetup(cfg, k, core.Config{
		LatentDim: 10, HiddenDim: 48, Epochs: 10, JointEpochs: 2,
	})
	if err != nil {
		return nil, err
	}
	segSize := len(seedImgs[0])
	n := len(seedImgs)
	run := func(raw bool) (float64, error) {
		dev, err := seededDevice(nvm.DefaultConfig(segSize, n), seedImgs)
		if err != nil {
			return 0, err
		}
		p, err := kvstore.NewClusteredAllocator(model, k, dev, addrRange(n))
		if err != nil {
			return 0, err
		}
		dev.ResetStats()
		var live []int
		for _, item := range items {
			addr, err := p.Place(item)
			if err != nil {
				return 0, err
			}
			if raw {
				if _, err := dev.WriteRaw(addr, item); err != nil {
					return 0, err
				}
			} else if _, err := dev.Write(addr, item); err != nil {
				return 0, err
			}
			live = append(live, addr)
			if len(live) > n/2 {
				v := live[0]
				live = live[1:]
				img, _ := dev.Peek(v)
				p.Release(v, img)
			}
		}
		s := dev.Stats()
		return s.EnergyPJ / float64(s.Writes), nil
	}
	diff, err := run(false)
	if err != nil {
		return nil, err
	}
	raw, err := run(true)
	if err != nil {
		return nil, err
	}
	table := stats.NewTable("write_mode", "energy_pJ/write")
	table.AddRow("differential (paper)", diff)
	table.AddRow("naive full reprogram", raw)
	return &Result{
		ID:    "abl-diff",
		Title: "Ablation: differential write vs naive full-segment reprogram",
		Table: table,
		Notes: []string{fmt.Sprintf("differential writes use %.1f%% of the naive energy", diff/raw*100)},
	}, nil
}
