package kvstore

import (
	"math/rand"
	"testing"

	"e2nvm/internal/nvm"
)

// BenchmarkPut / BenchmarkPutBatch8 drive steady-state overwrites — one
// at a time and eight per PutBatch — over a small store (64 B × 1024
// segments, 512 keys) so the serving path can be profiled in-package
// (go test -bench Put -cpuprofile ...) and the per-item ratio between the
// two read off one run. Quoted latencies come from bench/, not from these.
func BenchmarkPut(b *testing.B) {
	s := benchStore(b)
	val := make([]byte, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		val[0] = byte(i)
		if err := s.Put(uint64(i%512), val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPutBatch8(b *testing.B) {
	s := benchStore(b)
	const batch = 8
	keys := make([]uint64, batch)
	vals := make([][]byte, batch)
	for j := range vals {
		vals[j] = make([]byte, 32)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range keys {
			keys[j] = uint64((i*batch + j) % 512)
			vals[j][0] = byte(i)
		}
		if err := s.PutBatch(keys, vals, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func benchStore(b *testing.B) *Store {
	b.Helper()
	cfg := quickModelCfg()
	cfg.K = 8
	cfg.Epochs = 5
	dev, err := nvm.NewDevice(nvm.DefaultConfig(64, 1024))
	if err != nil {
		b.Fatal(err)
	}
	dev.Fill(rand.New(rand.NewSource(42)))
	s, err := Open(dev, cfg, Options{})
	if err != nil {
		b.Fatal(err)
	}
	return s
}
