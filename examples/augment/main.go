// Augment: plug existing NVM data structures (a persistent B+-Tree and a
// Path Hashing table) into E2-NVM, reproducing the Figure 12 flow. The
// stores' value placement is redirected through E2-NVM's content-aware
// allocator; everything else about them is unchanged.
//
//	go run ./examples/augment
package main

import (
	"fmt"
	"log"
	"math/rand"

	"e2nvm/internal/core"
	"e2nvm/internal/index"
	"e2nvm/internal/kvstore"
	"e2nvm/internal/nvm"
	"e2nvm/internal/workload"
)

const (
	segSize  = 256
	numSegs  = 1024
	metaSegs = 384
	valSize  = 32
	ops      = 3000
	clusters = 8
)

func main() {
	vg := workload.NewValueGen(valSize, clusters, 0.03, 1)

	fmt.Println("store         placement      flips/data-bit")
	for _, name := range []string{"B+-Tree", "Path Hashing"} {
		base, err := run(name, vg, false)
		if err != nil {
			log.Fatal(err)
		}
		aug, err := run(name, vg, true)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-13s native         %.4f\n", name, base)
		fmt.Printf("%-13s via E2-NVM     %.4f   (%.0f%% fewer flips)\n", name, aug, (1-aug/base)*100)
	}
}

func run(name string, vg *workload.ValueGen, augmented bool) (float64, error) {
	dev, err := nvm.NewDevice(nvm.DefaultConfig(segSize, numSegs))
	if err != nil {
		return 0, err
	}
	// The value region holds old data from the same distribution.
	r := rand.New(rand.NewSource(2))
	for a := metaSegs; a < numSegs; a++ {
		img := make([]byte, segSize)
		copy(img[2:], vg.For(uint64(r.Intn(500))))
		if err := dev.FillSegment(a, img); err != nil {
			return 0, err
		}
	}

	meta := index.NewFreeList(addrs(0, metaSegs))
	var values index.Allocator
	if augmented {
		// Train the model on the value region and hand the store a
		// content-aware allocator.
		sample := make([][]float64, 0, 256)
		for a := metaSegs; a < metaSegs+256; a++ {
			img, err := dev.Peek(a)
			if err != nil {
				return 0, err
			}
			sample = append(sample, core.BytesToBits(img))
		}
		model, err := core.Train(sample, core.Config{
			InputBits: segSize * 8, K: clusters, LatentDim: 10, HiddenDim: 48,
			Epochs: 8, JointEpochs: 1, Seed: 1,
		})
		if err != nil {
			return 0, err
		}
		if values, err = kvstore.NewClusteredAllocator(model, clusters, dev, addrs(metaSegs, numSegs-metaSegs)); err != nil {
			return 0, err
		}
	}

	var st index.Store
	switch name {
	case "B+-Tree":
		st, err = index.NewBPTree(dev, meta, values) // nil values = inline leaves
	default:
		slot := valSize
		if augmented {
			slot = 8
		}
		st, err = index.NewPathHash(dev, meta, values, metaSegs/2, 3, slot)
	}
	if err != nil {
		return 0, err
	}
	dev.ResetStats()
	wr := rand.New(rand.NewSource(3))
	keySpace := ops / 6
	for i := 0; i < ops; i++ {
		key := uint64(wr.Intn(keySpace))
		if wr.Intn(10) == 0 {
			if _, err := st.Delete(key); err != nil {
				return 0, err
			}
			continue
		}
		if err := st.Put(key, vg.For(key)); err != nil {
			return 0, err
		}
	}
	return float64(dev.Stats().BitsFlipped) / float64(st.DataBitsWritten()), nil
}

func addrs(off, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = off + i
	}
	return out
}
