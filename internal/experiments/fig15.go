package experiments

import (
	"fmt"

	"e2nvm/internal/bitvec"
	"e2nvm/internal/core"
	"e2nvm/internal/kvstore"
	"e2nvm/internal/nvm"
	"e2nvm/internal/padding"
	"e2nvm/internal/stats"
	"e2nvm/internal/workload"
)

func init() { register("fig15", Fig15) }

// Fig15 reproduces Figure 15: bit flips per word when different
// percentages of the CCTV frame are padded by the learned padding scheme.
// 0% padding (full frames) is the floor; small padded fractions (~10%)
// cost little; accuracy degrades as the padded fraction grows.
func Fig15(cfg RunConfig) (*Result, error) {
	const segSize = 32
	bits := segSize * 8
	frames := cfg.scaleInt(600, 200)
	const k = 6

	ds := workload.CCTVLike(frames, bits, cfg.Seed)
	split := len(ds.Items) * 8 / 10
	train := ds.Items[:split]
	test := ds.Items[split:]
	seedImgs := toBytesAll(train, segSize)

	model, err := core.Train(train, core.Config{
		InputBits: bits, K: k, LatentDim: 10, HiddenDim: 48,
		Epochs: 10, JointEpochs: 2, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	lstmNet, err := padding.TrainLearnedModel(train, 32, 8, 10, cfg.scaleInt(20, 8), cfg.Seed+1)
	if err != nil {
		return nil, err
	}

	table := stats.NewTable("padded_%", "flips/word")
	var series stats.Series
	series.Name = "flips_per_word_vs_padded_fraction"
	for _, pct := range []int{0, 10, 20, 30, 40, 50} {
		p := padding.New(padding.End, padding.Learned, cfg.Seed+2)
		p.SetModel(lstmNet, 32, 8)
		model.SetPadder(p)

		dev, err := seededDevice(nvm.DefaultConfig(segSize, len(train)), seedImgs)
		if err != nil {
			return nil, err
		}
		cp, err := kvstore.NewClusteredAllocator(model, k, dev, addrRange(len(train)))
		if err != nil {
			return nil, err
		}
		totalFlips, words := 0, 0
		for _, full := range test {
			keep := bits * (100 - pct) / 100
			item := append([]float64(nil), full[:keep]...)
			cluster := mustPredict(model.PredictPadded(item))
			addr, _, ok := cp.Pool().Get(cluster)
			if !ok {
				return nil, fmt.Errorf("fig15: pool exhausted")
			}
			old, err := dev.Peek(addr)
			if err != nil {
				return nil, err
			}
			oldBits := core.BytesToBits(old)[:len(item)]
			totalFlips += bitvec.HammingFloats(oldBits, item)
			words += len(item) / padWord
			img := append([]float64(nil), core.BytesToBits(old)...)
			copy(img[:len(item)], item)
			if err := dev.FillSegment(addr, core.BitsToBytes(img)); err != nil {
				return nil, err
			}
			cp.Release(addr, core.BitsToBytes(img))
		}
		fw := float64(totalFlips) / float64(words)
		table.AddRow(pct, fw)
		series.Add(float64(pct), fw)
	}
	return &Result{
		ID:     "fig15",
		Title:  "Bit flips per word vs padded fraction (learned padding, CCTV)",
		Table:  table,
		Series: []stats.Series{series},
		Notes: []string{
			fmt.Sprintf("%d frames of %d bits, k=%d; flips measured on written bits only", frames, bits, k),
			"expected shape: 0%% padding is best; ≤10%% costs little; accuracy degrades as padding grows",
		},
	}, nil
}
