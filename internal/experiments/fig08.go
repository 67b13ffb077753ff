package experiments

import (
	"fmt"

	"e2nvm/internal/energy"
	"e2nvm/internal/kmeans"
	"e2nvm/internal/kvstore"
	"e2nvm/internal/nvm"
	"e2nvm/internal/stats"
	"e2nvm/internal/vae"
	"e2nvm/internal/workload"
)

func init() { register("fig08", Fig8) }

// Fig8 reproduces Figure 8: the Sum-of-Squared-Errors elbow curve and the
// "energy valley" over the number of clusters K on CIFAR-like data. NVM
// write energy falls with K (tighter clusters → fewer flips) while model
// energy rises with K, so total energy bottoms out at an intermediate K,
// and the SSE elbow lands near the valley.
func Fig8(cfg RunConfig) (*Result, error) {
	const segSize = 32
	n := cfg.scaleInt(500, 120)
	ks := []int{2, 3, 4, 5, 6, 8, 10, 12, 14}

	ds := workload.CIFARLike(2*n, segSize*8, cfg.Seed)
	train := ds.Items[:n]
	test := toBytesAll(ds.Items[n:], segSize)
	seedImgs := toBytesAll(train, segSize)

	// The VAE is K-independent: train it once, then vary the clustering.
	v, err := vae.New(vae.Config{InputDim: segSize * 8, LatentDim: 10, Beta: 0.1, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	if _, err := v.Fit(train, vae.FitOptions{Epochs: 12, BatchSize: 32}); err != nil {
		return nil, err
	}
	latents := v.EncodeAll(train)

	table := stats.NewTable("K", "SSE", "nvm_energy_pJ/write", "model_energy_pJ/write", "total_pJ/write")
	var sses []float64
	var totals []float64
	for _, k := range ks {
		kcfg := kmeans.NewConfig(k)
		kcfg.Seed = cfg.Seed
		km, err := kmeans.Fit(latents, kcfg)
		if err != nil {
			return nil, err
		}
		sses = append(sses, km.SSE)

		dev, err := seededDevice(nvm.DefaultConfig(segSize, n), seedImgs)
		if err != nil {
			return nil, err
		}
		model := &vaeKMeansPredictor{v: v, km: km}
		p, err := kvstore.NewClusteredAllocator(model, k, dev, addrRange(n))
		if err != nil {
			return nil, err
		}
		dev.ResetStats()
		if _, err := runPlacement(dev, p, test, n/2); err != nil {
			return nil, err
		}
		s := dev.Stats()
		nvmPerWrite := s.EnergyPJ / float64(s.Writes)

		// Model energy per write: the K-means training cost amortized
		// over a realistic retraining horizon (a trained model serves
		// many more writes than this experiment issues) plus the
		// K-dependent centroid-scan compute per prediction. The
		// K-independent encoder cost is excluded — it shifts every K's
		// total equally and would only obscure the valley.
		prof := energy.New()
		horizon := 40 * len(test)
		trainFLOPs := float64(km.Iterations) * float64(n) * float64(k) * float64(v.LatentDim()) * 2
		prof.AddCompute(trainFLOPs * float64(len(test)) / float64(horizon))
		prof.AddCompute(2 * float64(k) * float64(v.LatentDim()) * float64(len(test)))
		modelPerWrite := prof.EnergyPJ() / float64(len(test))

		table.AddRow(k, km.SSE, nvmPerWrite, modelPerWrite, nvmPerWrite+modelPerWrite)
		totals = append(totals, nvmPerWrite+modelPerWrite)
	}
	elbow := ks[kmeans.ElbowPoint(sses)]
	valley := ks[argMin(totals)]
	return &Result{
		ID:    "fig08",
		Title: "SSE elbow vs energy valley over K (CIFAR-like)",
		Table: table,
		Notes: []string{
			fmt.Sprintf("elbow K = %d, energy-valley K = %d (paper: elbow is a good estimate of the valley)", elbow, valley),
			fmt.Sprintf("%d training segments of %d B", n, segSize),
		},
	}, nil
}

type vaeKMeansPredictor struct {
	v  *vae.Model
	km *kmeans.Model
}

func (p *vaeKMeansPredictor) PredictBytes(b []byte) (int, error) {
	bits := make([]float64, len(b)*8)
	for i := range bits {
		if b[i>>3]&(1<<(uint(i)&7)) != 0 {
			bits[i] = 1
		}
	}
	return p.km.Predict(p.v.Encode(bits)), nil
}

func argMin(v []float64) int {
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] < v[best] {
			best = i
		}
	}
	return best
}
