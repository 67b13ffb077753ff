package experiments

import (
	"fmt"

	"e2nvm/internal/core"
	"e2nvm/internal/energy"
	"e2nvm/internal/index"
	"e2nvm/internal/kvstore"
	"e2nvm/internal/nvm"
	"e2nvm/internal/stats"
	"e2nvm/internal/workload"
)

func init() { register("fig16", Fig16) }

// Fig16 reproduces Figure 16: the package energy over time as E2-NVM goes
// through its lifecycle — (1) initial training, (2) five overwrite passes,
// (3) retraining, (4) four more passes — compared against a wear-leveling
// device serving the same writes without E2-NVM. Training shows up as
// compute-energy ramps; write phases run at lower energy than the
// wear-leveling baseline; the note reports the break-even write count
// after which the per-write savings repay the training energy.
func Fig16(cfg RunConfig) (*Result, error) {
	const segSize = 64
	numSegs := cfg.scaleInt(384, 96)
	const k = 8
	epochs := 8

	ds := workload.ImageNetLike(10*numSegs, segSize*8, cfg.Seed)
	seedImgs := toBytesAll(ds.Items[:numSegs], segSize)

	prof := energy.New()
	table := stats.NewTable("phase", "sim_time_ms", "phase_energy_uJ", "avg_flips/write")
	var series stats.Series
	series.Name = "cumulative_energy_uJ_vs_time_ms"

	record := func(label string) {
		s := prof.Sample(label)
		series.Add(s.TimeNs/1e6, s.EnergyPJ/1e6)
	}

	// --- Phase 1: initial training ---
	record("start")
	t0, e0 := prof.TimeNs(), prof.EnergyPJ()
	model, err := core.Train(ds.Items[:numSegs], core.Config{
		InputBits: segSize * 8, K: k, LatentDim: 10, HiddenDim: 48,
		Epochs: epochs, JointEpochs: 2, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	trainFLOPs := float64(epochs+2) * float64(numSegs) * 3 * model.FLOPsPerPredict()
	for e := 0; e < epochs; e++ {
		prof.AddCompute(trainFLOPs / float64(epochs))
		record("train")
	}
	table.AddRow("1:train", (prof.TimeNs()-t0)/1e6, (prof.EnergyPJ()-e0)/1e6, 0.0)

	dev, err := seededDevice(nvm.DefaultConfig(segSize, numSegs), seedImgs)
	if err != nil {
		return nil, err
	}
	p, err := kvstore.NewClusteredAllocator(model, k, dev, addrRange(numSegs))
	if err != nil {
		return nil, err
	}

	writePhase := func(name string, passes int, from int) (float64, error) {
		t0, e0 := prof.TimeNs(), prof.EnergyPJ()
		before := dev.Stats()
		for pass := 0; pass < passes; pass++ {
			items := toBytesAll(ds.Items[from+pass*numSegs:from+(pass+1)*numSegs], segSize)
			for i, it := range items {
				prof.AddCompute(model.FLOPsPerPredict())
				addr, err := p.Place(it)
				if err != nil {
					return 0, err
				}
				res, err := dev.Write(addr, it)
				if err != nil {
					return 0, err
				}
				prof.AddNVM(res.EnergyPJ, res.LatencyNs)
				img, err := dev.Peek(addr)
				if err != nil {
					return 0, err
				}
				p.Release(addr, img)
				if i%64 == 0 {
					record(name)
				}
			}
		}
		after := dev.Stats()
		flips := float64(after.BitsFlipped-before.BitsFlipped) / float64(after.Writes-before.Writes)
		table.AddRow(name, (prof.TimeNs()-t0)/1e6, (prof.EnergyPJ()-e0)/1e6, flips)
		return flips, nil
	}

	// --- Phase 2: five overwrite passes ---
	if _, err := writePhase("2:write", 5, numSegs); err != nil {
		return nil, err
	}
	// --- Phase 3: retrain on current contents ---
	t0, e0 = prof.TimeNs(), prof.EnergyPJ()
	images, err := currentImages(dev)
	if err != nil {
		return nil, err
	}
	model2, err := core.Train(images, core.Config{
		InputBits: segSize * 8, K: k, LatentDim: 10, HiddenDim: 48,
		Epochs: epochs, JointEpochs: 2, Seed: cfg.Seed + 1,
	})
	if err != nil {
		return nil, err
	}
	for e := 0; e < epochs; e++ {
		prof.AddCompute(trainFLOPs / float64(epochs))
		record("retrain")
	}
	table.AddRow("3:retrain", (prof.TimeNs()-t0)/1e6, (prof.EnergyPJ()-e0)/1e6, 0.0)
	// Rebuild the pool under the new model (every segment is recycled
	// immediately in this loop, so all addresses are free).
	p, err = kvstore.NewClusteredAllocator(model2, k, dev, addrRange(numSegs))
	if err != nil {
		return nil, err
	}
	// --- Phase 4: four more passes ---
	e2Flips, err := writePhase("4:write", 4, 6*numSegs)
	if err != nil {
		return nil, err
	}

	// --- Baseline: wear leveling only, same nine passes ---
	wlCfg := nvm.DefaultConfig(segSize, numSegs)
	wlCfg.WearLevelPeriod = 20
	wlDev, err := seededDevice(wlCfg, seedImgs)
	if err != nil {
		return nil, err
	}
	wlPlacer := index.NewFreeList(addrRange(numSegs))
	wlProf := energy.New()
	for pass := 0; pass < 9; pass++ {
		items := toBytesAll(ds.Items[numSegs+pass*numSegs:numSegs+(pass+1)*numSegs], segSize)
		for _, it := range items {
			addr, err := wlPlacer.Place(it)
			if err != nil {
				return nil, err
			}
			res, err := wlDev.Write(addr, it)
			if err != nil {
				return nil, err
			}
			wlProf.AddNVM(res.EnergyPJ, res.LatencyNs)
			img, err := wlDev.Peek(addr)
			if err != nil {
				return nil, err
			}
			wlPlacer.Release(addr, img)
		}
	}
	wl := wlDev.Stats()
	wlFlips := float64(wl.BitsFlipped) / float64(wl.Writes)
	table.AddRow("baseline:wear-leveling", wlProf.TimeNs()/1e6, wlProf.EnergyPJ()/1e6, wlFlips)

	// Break-even analysis: the per-write flip saving, net of the model
	// compute every E2-NVM write is charged in writePhase, against the
	// training overhead.
	flipSaving := (wlFlips - e2Flips) * 50 // pJ
	computePerWrite := model.FLOPsPerPredict() * energy.ComputePJPerFLOP
	netSaving := flipSaving - computePerWrite
	trainEnergy := 2 * trainFLOPs * energy.ComputePJPerFLOP
	breakEven := "never"
	if netSaving > 0 {
		breakEven = fmt.Sprintf("after ≈%.0f writes", trainEnergy/netSaving)
	}
	note := fmt.Sprintf("per-write flip saving %.0f pJ − model compute %.0f pJ = net %.0f pJ; training cost %.2e pJ → break-even %s",
		flipSaving, computePerWrite, netSaving, trainEnergy, breakEven)
	return &Result{
		ID:     "fig16",
		Title:  "Package energy over time: train → write×5 → retrain → write×4 vs wear leveling",
		Table:  table,
		Series: []stats.Series{series},
		Notes: []string{
			fmt.Sprintf("%d segments × %d B, ImageNet-like items, k=%d", numSegs, segSize, k),
			note,
			"expected shape: training phases are compute ramps; E2-NVM write phases run at lower flips/write than the wear-leveling baseline",
		},
	}, nil
}

func currentImages(dev *nvm.Device) ([][]float64, error) {
	out := make([][]float64, dev.NumSegments())
	for a := 0; a < dev.NumSegments(); a++ {
		img, err := dev.Peek(a)
		if err != nil {
			return nil, err
		}
		out[a] = core.BytesToBits(img)
	}
	return out, nil
}
