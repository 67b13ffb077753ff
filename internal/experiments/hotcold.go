package experiments

import (
	"errors"
	"fmt"
	"math/rand"

	"e2nvm/internal/core"
	"e2nvm/internal/dap"
	"e2nvm/internal/hotcache"
	"e2nvm/internal/kvstore"
	"e2nvm/internal/nvm"
	"e2nvm/internal/stats"
	"e2nvm/internal/workload"
)

func init() { register("exp-hotcold", HotCold) }

// HotCold measures the two halves of the hot-key path. Read side: a
// zipfian read stream over a kvstore, with and without the HotRing-style
// DRAM cache in front, reporting device reads per operation and cache hit
// rate (every hot Get the cache absorbs is a device read that never
// happens). Write side: an update-heavy hot/cold workload on a
// small-endurance faulting device, with and without temperature steering
// (Options.KeyTemp fed by the same cache's hotness), reporting when the
// first segment retires and how many segments are lost over the run —
// steering sends hot keys to the least-worn cluster and cold keys to the
// most-worn, so the wear-out cliff arrives later.
//
// Both halves are wall-clock free: the read side counts device reads, the
// write side counts operations to retirement; latency belongs to bench/
// (the read-zipf-open workload).
func HotCold(cfg RunConfig) (*Result, error) {
	const segSize = 64
	const k = 6

	table := stats.NewTable("mode", "dev_reads_per_op", "hit_pct",
		"served_puts", "first_retire_op", "retired", "steered")

	rd, err := hotColdReads(cfg, segSize, k)
	if err != nil {
		return nil, err
	}
	for _, r := range rd {
		table.AddRow(r.name, r.readsPerOp, r.hitPct, -1, -1, -1, -1)
	}
	wr, err := hotColdWear(cfg, segSize, k)
	if err != nil {
		return nil, err
	}
	for _, r := range wr {
		table.AddRow(r.name, -1.0, r.hitPct, r.served, r.firstRetire, r.retired, r.steered)
	}

	notes := []string{
		"read rows: zipfian (theta=0.99-shaped stdlib zipf) Get stream; dev_reads_per_op is the device reads the cache did or did not absorb",
		"wear rows: update-heavy hot/cold mix on a low-endurance faulting device; first_retire_op is the op index of the first segment retirement (-1: none)",
		"steering must not arrive earlier at the cliff: first_retire_op(steered) >= first_retire_op(no steering), and typically retires fewer segments",
		"-1 cells are not-applicable for that mode",
	}
	return &Result{
		ID:    "exp-hotcold",
		Title: "Hot/cold split: cache read absorption and wear-steered lifetime",
		Table: table,
		Notes: notes,
	}, nil
}

type hotColdReadRow struct {
	name       string
	readsPerOp float64
	hitPct     float64
}

// hotColdReads drives the same zipfian read stream against a kvstore bare
// and through a hotcache front, counting device reads.
func hotColdReads(cfg RunConfig, segSize, k int) ([]hotColdReadRow, error) {
	numSegs := cfg.scaleInt(256, 64)
	keys := numSegs / 4
	ops := cfg.scaleInt(8000, 1200)
	vg := workload.NewValueGen(segSize-kvstore.RecordOverhead, k, 0.03, cfg.Seed)

	var rows []hotColdReadRow
	for _, mode := range []struct {
		name   string
		cached bool
	}{
		{"read zipf, uncached", false},
		{"read zipf, cached", true},
	} {
		dev, err := nvm.NewDevice(nvm.DefaultConfig(segSize, numSegs))
		if err != nil {
			return nil, err
		}
		st, err := kvstore.Open(dev, core.Config{
			K: k, LatentDim: 8, HiddenDim: 48, Epochs: 6, JointEpochs: 1,
			Seed: cfg.Seed,
		}, kvstore.Options{})
		if err != nil {
			return nil, err
		}
		for key := 0; key < keys; key++ {
			if err := st.Put(uint64(key), vg.For(uint64(key))); err != nil {
				return nil, err
			}
		}
		var cache *hotcache.Cache
		if mode.cached {
			cache, err = hotcache.New(hotcache.Config{MaxBytes: 1 << 20})
			if err != nil {
				return nil, err
			}
		}
		dev.ResetStats()
		r := rand.New(rand.NewSource(cfg.Seed + 31))
		zipf := rand.NewZipf(r, 1.2, 1, uint64(keys-1))
		for op := 0; op < ops; op++ {
			key := zipf.Uint64()
			if cache == nil {
				if _, ok, err := st.Get(key); err != nil || !ok {
					return nil, fmt.Errorf("exp-hotcold: uncached Get(%d) = (%v,%v)", key, ok, err)
				}
				continue
			}
			if _, ok := cache.GetInto(key, nil); ok {
				continue
			}
			token := cache.BeginFill(key)
			v, ok, err := st.Get(key)
			if err != nil || !ok {
				return nil, fmt.Errorf("exp-hotcold: cached Get(%d) = (%v,%v)", key, ok, err)
			}
			cache.CompleteFill(key, v, token)
		}
		row := hotColdReadRow{
			name:       mode.name,
			readsPerOp: float64(dev.Stats().Reads) / float64(ops),
		}
		if cache != nil {
			cs := cache.Stats()
			row.hitPct = 100 * float64(cs.Hits) / float64(cs.Hits+cs.Misses)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

type hotColdWearRow struct {
	name        string
	hitPct      float64
	served      int
	firstRetire int
	retired     uint64
	steered     uint64
}

// hotColdWear runs an update-heavy hot/cold workload to (or past) the
// first segment retirement, with and without cache-fed wear steering. One
// shared model keeps the clustering decisions identical across modes.
func hotColdWear(cfg RunConfig, segSize, k int) ([]hotColdWearRow, error) {
	numSegs := cfg.scaleInt(256, 64)
	maxOps := cfg.scaleInt(20000, 2500)
	keys := numSegs / 4
	vg := workload.NewValueGen(segSize-kvstore.RecordOverhead, k, 0.03, cfg.Seed)

	devCfg := nvm.DefaultConfig(segSize, numSegs)
	devCfg.EnduranceWrites = 160
	devCfg.Fault = nvm.FaultConfig{
		Seed:          cfg.Seed + 9,
		ProbPerWrite:  0.05,
		OnsetFraction: 0.5,
		BitsPerFault:  2,
	}
	seed := func(dev *nvm.Device) error {
		for a := 0; a < numSegs; a++ {
			img := make([]byte, segSize)
			copy(img[kvstore.RecordOverhead:], vg.For(uint64(a)))
			if err := dev.FillSegment(a, img); err != nil {
				return err
			}
		}
		return nil
	}
	sampleDev, err := nvm.NewDevice(devCfg)
	if err != nil {
		return nil, err
	}
	if err := seed(sampleDev); err != nil {
		return nil, err
	}
	imgs := make([][]float64, numSegs)
	for a := 0; a < numSegs; a++ {
		b, err := sampleDev.Peek(a)
		if err != nil {
			return nil, err
		}
		imgs[a] = core.BytesToBits(b)
	}
	model, err := core.Train(imgs, core.Config{
		InputBits: segSize * 8, K: k, LatentDim: 10, HiddenDim: 48,
		Epochs: 8, JointEpochs: 1, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}

	var rows []hotColdWearRow
	for _, mode := range []struct {
		name  string
		steer bool
	}{
		{"wear mix, no steering", false},
		{"wear mix, steered", true},
	} {
		dev, err := nvm.NewDevice(devCfg)
		if err != nil {
			return nil, err
		}
		if err := seed(dev); err != nil {
			return nil, err
		}
		cache, err := hotcache.New(hotcache.Config{MaxBytes: 1 << 20})
		if err != nil {
			return nil, err
		}
		opts := kvstore.Options{DegradeThreshold: 0.25}
		if mode.steer {
			opts.KeyTemp = func(key uint64) dap.Temp {
				present, hot := cache.Hotness(key)
				switch {
				case hot:
					return dap.TempHot
				case present:
					return dap.TempCold
				default:
					return dap.TempNone
				}
			}
		}
		st, err := kvstore.OpenWith(dev, model, opts)
		if err != nil {
			return nil, err
		}
		dev.ResetStats()
		r := rand.New(rand.NewSource(cfg.Seed + 3))
		zipf := rand.NewZipf(r, 1.2, 1, uint64(keys-1))
		served, firstRetire := 0, -1
		for op := 0; op < maxOps; op++ {
			key := zipf.Uint64()
			if op%3 == 2 { // read leg: heats the cache like the facade does
				if v, ok := cache.GetInto(key, nil); ok {
					_ = v
				} else {
					token := cache.BeginFill(key)
					if v, ok, err := st.Get(key); err == nil && ok {
						cache.CompleteFill(key, v, token)
					}
				}
				continue
			}
			v := vg.ForVersion(key, op)
			if perr := st.Put(key, v); perr != nil {
				if errors.Is(perr, kvstore.ErrDegraded) {
					if firstRetire < 0 && st.Stats().Retired > 0 {
						firstRetire = op
					}
					break // capacity gone: end of service life
				}
				if !errors.Is(perr, kvstore.ErrWornOut) && !errors.Is(perr, kvstore.ErrNoSpace) {
					return nil, perr
				}
			} else {
				served++
				cache.Invalidate(key) // write-through, as the facade orders it
			}
			if firstRetire < 0 && st.Stats().Retired > 0 {
				firstRetire = op
			}
			if op%64 == 63 {
				if _, serr := st.Scrub(numSegs / 8); serr != nil {
					return nil, serr
				}
				if firstRetire < 0 && st.Stats().Retired > 0 {
					firstRetire = op
				}
			}
		}
		sst := st.Stats()
		cs := cache.Stats()
		row := hotColdWearRow{
			name:        mode.name,
			served:      served,
			firstRetire: firstRetire,
			retired:     sst.Retired,
			steered:     sst.Steered,
		}
		if cs.Hits+cs.Misses > 0 {
			row.hitPct = 100 * float64(cs.Hits) / float64(cs.Hits+cs.Misses)
		}
		rows = append(rows, row)
	}
	return rows, nil
}
