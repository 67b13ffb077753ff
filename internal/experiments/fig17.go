package experiments

import (
	"fmt"
	"math/rand"

	"e2nvm/internal/core"
	"e2nvm/internal/kvstore"
	"e2nvm/internal/nvm"
	"e2nvm/internal/stats"
	"e2nvm/internal/workload"
)

func init() { register("fig17", Fig17) }

// Fig17 reproduces Figure 17: E2-NVM's adaptability as the memory content
// and the incoming workload change over five scenarios — (I) model trained
// on random content, MNIST stream arrives (fluctuations narrow as deleted
// items recycle); (II) retrain, more MNIST (stable and low); (III) a 1:2
// Fashion-MNIST/MNIST mixture arrives (degrades immediately); (IV) CIFAR
// arrives (fluctuates more); (V) retrain on current content, more CIFAR
// (recovers fast).
func Fig17(cfg RunConfig) (*Result, error) {
	const segSize = 32
	bits := segSize * 8
	numSegs := cfg.scaleInt(512, 128)
	const k = 10
	perPhase := cfg.scaleInt(1600, 300)

	mnist := workload.MNISTLike(2*perPhase+numSegs, bits, cfg.Seed)
	fashion := workload.FashionMNISTLike(perPhase, bits, cfg.Seed+1)
	cifar := workload.CIFARLike(2*perPhase, bits, cfg.Seed+2)

	// Scenario I starts from completely random memory content.
	r := rand.New(rand.NewSource(cfg.Seed + 3))
	randomImgs := make([][]byte, numSegs)
	randomBits := make([][]float64, numSegs)
	for i := range randomImgs {
		img := make([]byte, segSize)
		r.Read(img)
		randomImgs[i] = img
		randomBits[i] = core.BytesToBits(img)
	}
	dev, err := seededDevice(nvm.DefaultConfig(segSize, numSegs), randomImgs)
	if err != nil {
		return nil, err
	}
	trainCfg := core.Config{
		InputBits: bits, K: k, LatentDim: 10, HiddenDim: 48,
		Epochs: 8, JointEpochs: 2, Seed: cfg.Seed,
	}
	model, err := core.Train(randomBits, trainCfg)
	if err != nil {
		return nil, err
	}
	p, err := kvstore.NewClusteredAllocator(model, k, dev, addrRange(numSegs))
	if err != nil {
		return nil, err
	}

	table := stats.NewTable("scenario", "stream", "avg_flips/write", "std_flips/write")
	var trace stats.Series
	trace.Name = "flips_per_write_windowed"
	opIndex := 0

	stream := func(name, streamName string, items [][]float64) error {
		imgs := toBytesAll(items, segSize)
		flips, err := runPlacement(dev, p, imgs, numSegs/2)
		if err != nil {
			return err
		}
		for _, f := range stats.WindowedMean(flips, 32) {
			trace.Add(float64(opIndex), f)
			opIndex += 32
		}
		table.AddRow(name, streamName, stats.Mean(flips), stats.Std(flips))
		return nil
	}
	retrain := func() error {
		images, err := currentImages(dev)
		if err != nil {
			return err
		}
		model, err = core.Train(images, trainCfg)
		if err != nil {
			return err
		}
		p, err = kvstore.NewClusteredAllocator(model, k, dev, addrRange(numSegs))
		return err
	}

	// I: random-trained model, MNIST stream (with deletes via recycling).
	if err := stream("I", "MNIST on random-trained model", mnist.Items[:perPhase]); err != nil {
		return nil, err
	}
	// II: retrain on current content, continue MNIST.
	if err := retrain(); err != nil {
		return nil, err
	}
	if err := stream("II", "MNIST after retrain", mnist.Items[perPhase:2*perPhase]); err != nil {
		return nil, err
	}
	// III: 1:2 Fashion/MNIST mixture.
	var mixed [][]float64
	for i := 0; i < perPhase; i++ {
		if i%3 == 0 {
			mixed = append(mixed, fashion.Items[i%len(fashion.Items)])
		} else {
			mixed = append(mixed, mnist.Items[(2*perPhase+i)%len(mnist.Items)])
		}
	}
	if err := stream("III", "Fashion:MNIST 1:2 (unseen data)", mixed); err != nil {
		return nil, err
	}
	// IV: CIFAR, never seen.
	if err := stream("IV", "CIFAR-10 (unseen)", cifar.Items[:perPhase]); err != nil {
		return nil, err
	}
	// V: retrain on current content, continue CIFAR.
	if err := retrain(); err != nil {
		return nil, err
	}
	if err := stream("V", "CIFAR-10 after retrain", cifar.Items[perPhase:2*perPhase]); err != nil {
		return nil, err
	}

	return &Result{
		ID:     "fig17",
		Title:  "Adaptability to dynamic content/workload changes (five scenarios)",
		Table:  table,
		Series: []stats.Series{trace},
		Notes: []string{
			fmt.Sprintf("%d segments × %d B, %d writes per scenario, k=%d", numSegs, segSize, perPhase, k),
			"expected shape: I high/fluctuating, II low, III jumps (unseen data), IV fluctuates more, V recovers after retraining",
		},
	}, nil
}
