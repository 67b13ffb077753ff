package experiments

import (
	"fmt"

	"e2nvm/internal/core"
	"e2nvm/internal/kvstore"
	"e2nvm/internal/nvm"
	"e2nvm/internal/pnw"
	"e2nvm/internal/rbw"
	"e2nvm/internal/stats"
	"e2nvm/internal/workload"
)

func init() { register("fig02", Fig2) }

// Fig2 reproduces Figure 2: the average number of bit updates per write as
// the wear-leveling swap period ψ varies, comparing E2-NVM against FNW,
// Captopril, PNW, DCW and MinShift on Amazon-Access-like records. At ψ=1
// every write triggers a segment swap, destroying E2-NVM's placement (and
// hurting everyone); at realistic ψ (tens of writes) the software-level
// approach pulls ahead.
func Fig2(cfg RunConfig) (*Result, error) {
	const segSize = 32
	numSegs := cfg.scaleInt(384, 64)
	nItems := cfg.scaleInt(1500, 200)
	k := 10

	ds := workload.AmazonAccessLike(numSegs+nItems, segSize*8, cfg.Seed)
	seedImgs := toBytesAll(ds.Items[:numSegs], segSize)
	items := toBytesAll(ds.Items[numSegs:], segSize)

	// Train the clustering models once on the seed contents.
	e2Model, err := core.Train(ds.Items[:numSegs], core.Config{
		InputBits: segSize * 8, K: k, LatentDim: 8,
		Epochs: 15, JointEpochs: 3, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	pnwModel, err := pnw.Train(ds.Items[:numSegs], pnw.Config{K: k, Mode: pnw.PCAKMeans, PCADims: 8, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}

	psis := []int{1, 2, 5, 10, 20, 50, 100}
	table := stats.NewTable(append([]string{"psi"},
		"E2-NVM", "PNW", "DCW", "FNW", "MinShift", "Captopril")...)

	for _, psi := range psis {
		devCfg := nvm.DefaultConfig(segSize, numSegs)
		devCfg.WearLevelPeriod = psi

		runClustered := func(model kvstore.Predictor) (float64, error) {
			dev, err := seededDevice(devCfg, seedImgs)
			if err != nil {
				return 0, err
			}
			p, err := kvstore.NewClusteredAllocator(model, k, dev, addrRange(numSegs))
			if err != nil {
				return 0, err
			}
			dev.ResetStats()
			if _, err := runPlacement(dev, p, items, numSegs/2); err != nil {
				return 0, err
			}
			s := dev.Stats()
			return float64(s.BitsFlipped) / float64(s.Writes), nil
		}

		e2, err := runClustered(e2Model)
		if err != nil {
			return nil, err
		}
		pn, err := runClustered(pnwAdapter{pnwModel})
		if err != nil {
			return nil, err
		}

		schemes := []rbw.Scheme{rbw.DCW{}, rbw.FNW{}, rbw.MinShift{}, rbw.Captopril{}}
		perScheme := map[string]float64{}
		for _, sch := range schemes {
			dev, err := seededDevice(devCfg, seedImgs)
			if err != nil {
				return nil, err
			}
			avg, err := runInPlaceScheme(dev, sch, items, numSegs)
			if err != nil {
				return nil, err
			}
			perScheme[sch.Name()] = avg
		}
		table.AddRow(psi, e2, pn, perScheme["DCW"], perScheme["FNW"], perScheme["MinShift"], perScheme["Captopril"])
	}
	return &Result{
		ID:    "fig02",
		Title: "Average bit updates per write vs wear-leveling swap period ψ",
		Table: table,
		Notes: []string{
			fmt.Sprintf("%d segments × %d B, %d writes, Amazon-Access-like records, k=%d", numSegs, segSize, nItems, k),
			"bit updates include wear-leveling copy flips and RBW tag-bit flips",
		},
	}, nil
}

// pnwAdapter lets a PNW model serve as a kvstore.Predictor.
type pnwAdapter struct{ m *pnw.Model }

func (a pnwAdapter) PredictBytes(b []byte) (int, error) {
	return a.m.Predict(core.BytesToBits(b)), nil
}

// runInPlaceScheme writes items round-robin over all segments, encoding
// each write against the old stored content with the given RBW scheme and
// threading tag state forward. Returns average (data+tag) flips per write,
// including wear-leveling copies charged by the device.
func runInPlaceScheme(dev *nvm.Device, sch rbw.Scheme, items [][]byte, workingSet int) (float64, error) {
	if workingSet > dev.NumSegments() {
		workingSet = dev.NumSegments()
	}
	tags := make([][]byte, workingSet)
	tagFlips := 0
	dev.ResetStats()
	for i, item := range items {
		addr := i % workingSet
		old, err := dev.Peek(addr)
		if err != nil {
			return 0, err
		}
		res := sch.Encode(old, tags[addr], item)
		tags[addr] = res.Tags
		tagFlips += res.TagFlips
		if _, err := dev.Write(addr, res.Stored); err != nil {
			return 0, err
		}
	}
	s := dev.Stats()
	return (float64(s.BitsFlipped) + float64(tagFlips)) / float64(s.Writes), nil
}
