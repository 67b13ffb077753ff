package experiments

import (
	"fmt"
	"math/rand"

	"e2nvm/internal/core"
	"e2nvm/internal/index"
	"e2nvm/internal/kvstore"
	"e2nvm/internal/nvm"
	"e2nvm/internal/stats"
	"e2nvm/internal/workload"
)

func init() { register("fig12", Fig12) }

// Fig12 reproduces Figure 12: the average number of bit updates per data
// bit written for five persistent store designs — B+-Tree, WiscKey, Path
// Hashing, FP-Tree, NoveLSM — before and after plugging them into E2-NVM.
// Before: the store's native placement (inline sorted leaves for the
// B+-Tree, inline buckets/slots for Path Hashing and FP-Tree, an arbitrary
// free list for the value logs of WiscKey and NoveLSM). After: values are
// placed out-of-line through E2-NVM's content-aware allocator.
func Fig12(cfg RunConfig) (*Result, error) {
	const segSize = 256 // page size; values are 32 B so sorted leaves hold several entries
	const valSize = 32
	numSegs := cfg.scaleInt(768, 256)
	ops := cfg.scaleInt(1200, 300)
	const k = 8

	metaSegs := numSegs / 3
	valueSegs := numSegs - metaSegs

	// Values with planted cluster structure.
	vg := workload.NewValueGen(valSize, k, 0.03, cfg.Seed)
	valFor := func(key uint64) []byte { return vg.For(key) }

	// Train one model on a sample of value images (padded to segments the
	// same way valueZone stores them, so content prediction sees what the
	// device holds).
	sample := make([][]float64, 256)
	for i := range sample {
		img := make([]byte, segSize)
		v := valFor(uint64(i))
		img[0] = byte(len(v))
		copy(img[2:], v)
		sample[i] = core.BytesToBits(img)
	}
	model, err := core.Train(sample, core.Config{
		InputBits: segSize * 8, K: k, LatentDim: 10, HiddenDim: 48,
		Epochs: 8, JointEpochs: 1, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}

	type build func(dev *nvm.Device, meta *index.FreeList, values index.Allocator) (index.Store, error)
	type storeCase struct {
		name      string
		baseline  build // native placement (values == nil where inline)
		augmented build // values through the content-aware allocator
	}
	mkBP := func(dev *nvm.Device, meta *index.FreeList, values index.Allocator) (index.Store, error) {
		return index.NewBPTree(dev, meta, values)
	}
	mkFP := func(slot int) build {
		return func(dev *nvm.Device, meta *index.FreeList, values index.Allocator) (index.Store, error) {
			return index.NewFPTree(dev, meta, values, slot)
		}
	}
	mkPH := func(slot int) build {
		return func(dev *nvm.Device, meta *index.FreeList, values index.Allocator) (index.Store, error) {
			return index.NewPathHash(dev, meta, values, metaSegs/2, 3, slot)
		}
	}
	mkWK := func(dev *nvm.Device, meta *index.FreeList, values index.Allocator) (index.Store, error) {
		if values == nil {
			values = index.NewFreeList(addrRange(numSegs)[metaSegs:])
		}
		return index.NewWiscKey(dev, meta, values, 32, 4)
	}
	mkNL := func(dev *nvm.Device, meta *index.FreeList, values index.Allocator) (index.Store, error) {
		if values == nil {
			values = index.NewFreeList(addrRange(numSegs)[metaSegs:])
		}
		return index.NewNoveLSM(dev, meta, values, 4)
	}
	cases := []storeCase{
		{"B+-Tree", mkBP, mkBP},
		{"WiscKey", mkWK, mkWK},
		{"Path Hashing", mkPH(valSize), mkPH(8)},
		{"FP-Tree", mkFP(valSize), mkFP(8)},
		{"NoveLSM", mkNL, mkNL},
	}

	table := stats.NewTable("store", "before_flips/databit", "after_flips/databit", "improvement_%")
	run := func(b build, augmented bool) (float64, error) {
		dev, err := nvm.NewDevice(nvm.DefaultConfig(segSize, numSegs))
		if err != nil {
			return 0, err
		}
		// Seed the VALUE region with old content from the same
		// distribution (overwritten data, as in the paper's setup).
		r := rand.New(rand.NewSource(cfg.Seed + 3))
		for a := metaSegs; a < numSegs; a++ {
			img := make([]byte, segSize)
			v := valFor(uint64(r.Intn(500)))
			copy(img[2:], v)
			if err := dev.FillSegment(a, img); err != nil {
				return 0, err
			}
		}
		meta := index.NewFreeList(addrRange(metaSegs))
		var values index.Allocator
		if augmented {
			if values, err = kvstore.NewClusteredAllocator(model, k, dev, addrRange(numSegs)[metaSegs:]); err != nil {
				return 0, err
			}
		}
		st, err := b(dev, meta, values)
		if err != nil {
			return 0, err
		}
		dev.ResetStats()
		r = rand.New(rand.NewSource(cfg.Seed + 4))
		keySpace := ops / 3
		for i := 0; i < ops; i++ {
			key := uint64(r.Intn(keySpace))
			switch r.Intn(10) {
			case 0: // occasional delete keeps the pools churning
				if _, err := st.Delete(key); err != nil {
					return 0, err
				}
			default:
				if err := st.Put(key, valFor(key)); err != nil {
					return 0, err
				}
			}
		}
		flips := float64(dev.Stats().BitsFlipped)
		dataBits := float64(st.DataBitsWritten())
		if dataBits == 0 {
			return 0, fmt.Errorf("fig12: no data written")
		}
		return flips / dataBits, nil
	}

	for _, c := range cases {
		before, err := run(c.baseline, false)
		if err != nil {
			return nil, fmt.Errorf("%s baseline: %w", c.name, err)
		}
		after, err := run(c.augmented, true)
		if err != nil {
			return nil, fmt.Errorf("%s augmented: %w", c.name, err)
		}
		table.AddRow(c.name, before, after, (1-after/before)*100)
	}
	return &Result{
		ID:    "fig12",
		Title: "Bit updates per data bit: stores before vs after E2-NVM augmentation",
		Table: table,
		Notes: []string{
			fmt.Sprintf("%d segments × %d B (%d metadata, %d value), %d ops, k=%d", numSegs, segSize, metaSegs, valueSegs, ops, k),
			"expected shape: every store improves when plugged into E2-NVM; the sorted B+-Tree improves the most (paper: up to 91%)",
		},
	}, nil
}
