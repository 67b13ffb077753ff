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

func init() { register("fig14", Fig14) }

// padWord is the word size (bits) the paper's "bit flips per word" metric
// divides by.
const padWord = 32

// Fig14 reproduces Figure 14: the average number of bit flips per word
// after applying each of the seven padding types (0, 1, rand, IB, DB, MB,
// LB) at the three padding positions. The model is trained on 80% of the
// dataset at full width; test items have one third of their bits cropped
// at the position the padding restores. Expected ordering: learned >
// data-aware (IB/DB/MB) > data-agnostic (0/1/rand).
func Fig14(cfg RunConfig) (*Result, error) {
	const segSize = 32
	bits := segSize * 8
	n := cfg.scaleInt(500, 150)
	const k = 8

	sets := []*workload.Dataset{
		workload.MNISTLike(n, bits, cfg.Seed),
		workload.CCTVLike(n, bits, cfg.Seed+1),
	}
	table := stats.NewTable("dataset", "position", "type", "flips/word")
	notes := []string{"model trained on 80% at full width; test items cropped by 1/2 at the padding position"}

	for _, ds := range sets {
		split := len(ds.Items) * 8 / 10
		train := ds.Items[:split]
		testFull := ds.Items[split:]
		seedImgs := toBytesAll(train, segSize)

		model, err := core.Train(train, core.Config{
			InputBits: bits, K: k, LatentDim: 10, HiddenDim: 48,
			Epochs: 10, JointEpochs: 2, Seed: cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		// One learned-padding LSTM per dataset, shared across positions.
		lstmNet, err := padding.TrainLearnedModel(train, 32, 8, 24, cfg.scaleInt(30, 12), cfg.Seed+2)
		if err != nil {
			return nil, err
		}

		for _, loc := range []padding.Location{padding.Begin, padding.Middle, padding.End} {
			for _, kind := range padding.Types() {
				p := padding.New(loc, kind, cfg.Seed+3)
				for _, it := range train {
					p.Observe(it)
				}
				p.SetMemoryDensity(func() float64 { return densityOf(train) })
				if kind == padding.Learned {
					p.SetModel(lstmNet, 32, 8)
				}
				model.SetPadder(p)

				dev, err := seededDevice(nvm.DefaultConfig(segSize, len(train)), seedImgs)
				if err != nil {
					return nil, err
				}
				alloc, err := kvstore.NewClusteredAllocator(model, k, dev, addrRange(len(train)))
				if err != nil {
					return nil, err
				}
				totalFlips, words := 0, 0
				for _, full := range testFull {
					item := crop(full, loc)
					cluster := mustPredict(model.PredictPadded(item))
					addr, _, ok := alloc.Pool().Get(cluster)
					if !ok {
						return nil, fmt.Errorf("fig14: pool exhausted")
					}
					old, err := dev.Peek(addr)
					if err != nil {
						return nil, err
					}
					// Only the actual data bits are written (padded bits
					// are never stored): flips over the data region.
					oldBits := core.BytesToBits(old)[:len(item)]
					totalFlips += bitvec.HammingFloats(oldBits, item)
					words += len(item) / padWord
					// Write the region back and recycle the segment.
					img := append([]float64(nil), core.BytesToBits(old)...)
					copy(img[:len(item)], item)
					if err := dev.FillSegment(addr, core.BitsToBytes(img)); err != nil {
						return nil, err
					}
					alloc.Release(addr, core.BitsToBytes(img))
				}
				table.AddRow(ds.Name, loc.String(), kind.String(), float64(totalFlips)/float64(words))
			}
		}
	}
	return &Result{
		ID:    "fig14",
		Title: "Bit flips per word for 7 padding types × 3 positions",
		Table: table,
		Notes: notes,
	}, nil
}

// crop removes half of the item's bits at the position the padding
// strategy will restore. (The paper crops one third of its real images;
// the synthetic datasets are more separable, so a deeper crop is needed to
// make the padding decision load-bearing.)
func crop(item []float64, loc padding.Location) []float64 {
	n := len(item)
	cut := n / 2
	switch loc {
	case padding.Begin: // padding goes before the data → the head is missing
		return append([]float64(nil), item[cut:]...)
	case padding.End: // padding goes after the data → the tail is missing
		return append([]float64(nil), item[:n-cut]...)
	default: // Middle/Edges: the middle third is missing
		head := item[:(n-cut)/2]
		tail := item[n-(n-cut)+len(head):]
		out := append([]float64(nil), head...)
		return append(out, tail...)
	}
}

func densityOf(items [][]float64) float64 {
	ones, total := 0, 0
	for _, it := range items {
		for _, b := range it {
			total++
			if b >= 0.5 {
				ones++
			}
		}
	}
	if total == 0 {
		return 0.5
	}
	return float64(ones) / float64(total)
}
