package core

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
)

// TestKernelBuiltAndServing: a trained model at byte-aligned geometry
// carries a kernel, and the byte serving path agrees with the float path
// on cluster assignments.
func TestKernelBuiltAndServing(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	data, _ := segmentSet(r, 120, 3, 64, 0.05)
	m, err := Train(data, quickCfg(64, 3))
	if err != nil {
		t.Fatal(err)
	}
	k := m.Kernel()
	if k == nil {
		t.Fatal("trained model at byte-aligned geometry has no kernel")
	}
	if k.InBits() != 64 || k.K() != 3 {
		t.Fatalf("kernel geometry %d bits K=%d, want 64/3", k.InBits(), k.K())
	}
	for trial := 0; trial < 30; trial++ {
		seg := make([]byte, 8)
		r.Read(seg)
		byteC, err := m.PredictBytes(seg)
		if err != nil {
			t.Fatal(err)
		}
		floatC := mustP(m.Predict(BytesToBits(seg)))
		if byteC != floatC {
			t.Fatalf("trial %d: kernel path %d, float path %d", trial, byteC, floatC)
		}
	}
}

// TestKernelSurvivesSnapshot: Save/Load rebuilds the kernel from the
// restored weights (it is derived state, never serialized) at a fresh
// version, and the restored kernel predicts identically.
func TestKernelSurvivesSnapshot(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	data, _ := segmentSet(r, 100, 3, 32, 0.05)
	m, err := Train(data, quickCfg(32, 3))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Kernel() == nil {
		t.Fatal("restored model has no kernel")
	}
	if m2.Kernel().Version() == m.Kernel().Version() {
		t.Fatal("restored kernel reused the original's version")
	}
	for trial := 0; trial < 20; trial++ {
		seg := make([]byte, 4)
		r.Read(seg)
		a, err := m.PredictBytes(seg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := m2.PredictBytes(seg)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("trial %d: original %d, restored %d", trial, a, b)
		}
	}
}

// TestKernelModelSwapRace: serve PredictBytes (single and per block) from
// many goroutines while the manager retrains and swaps models. Run under
// -race this verifies a Put can never mix tables and centroids from
// different trainings: each Model owns an immutable kernel built before
// publication, so the only shared mutable state is the manager's pointer.
func TestKernelModelSwapRace(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	data, _ := segmentSet(r, 120, 3, 64, 0.05)
	m, err := Train(data, quickCfg(64, 3))
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(m)
	v0 := mgr.Current().Kernel().Version()

	segs := make([][]byte, 16)
	for i := range segs {
		segs[i] = make([]byte, 8)
		r.Read(segs[i])
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]int, len(segs))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				model := mgr.Current()
				if g%2 == 0 {
					if _, err := model.PredictBytes(segs[i%len(segs)]); err != nil {
						t.Error(err)
						return
					}
				} else if err := model.PredictBytesBlock(segs, out); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	swaps := 0
	for retrain := 0; retrain < 3; retrain++ {
		cfg := quickCfg(64, 3)
		cfg.Seed = int64(100 + retrain)
		if _, err := mgr.RetrainSync(data, cfg); err != nil {
			t.Error(err)
			break
		}
		swaps++
	}
	close(stop)
	wg.Wait()
	vN := mgr.Current().Kernel().Version()
	if swaps == 3 && vN <= v0 {
		t.Fatalf("kernel version did not advance across swaps: %d -> %d", v0, vN)
	}
}
