package kvstore

import (
	"math/rand"
	"testing"

	"e2nvm/internal/nvm"
)

// BenchmarkPut drives steady-state overwrites over a small store (64 B ×
// 1024 segments, 512 keys) so the serving path can be profiled in-package
// (go test -bench Put -cpuprofile ...). Quoted latencies come from bench/,
// not from this.
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
