package e2nvm_test

import (
	"bytes"
	"fmt"
	"log"

	"e2nvm"
)

// Example shows the minimal lifecycle: open, put, get, delete, metrics.
func Example() {
	store, err := e2nvm.Open(e2nvm.Config{
		SegmentSize: 64,
		NumSegments: 128,
		Clusters:    4,
		TrainEpochs: 4,
		Seed:        1,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := store.Put(7, []byte("hello")); err != nil {
		log.Fatal(err)
	}
	v, ok, _ := store.Get(7)
	fmt.Println(string(v), ok)
	ok, _ = store.Delete(7)
	fmt.Println("deleted:", ok)
	// Output:
	// hello true
	// deleted: true
}

// ExampleStore_Scan shows ordered range scans over the RB-tree index.
func ExampleStore_Scan() {
	store, err := e2nvm.Open(e2nvm.Config{
		SegmentSize: 64, NumSegments: 128, Clusters: 4, TrainEpochs: 4, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, k := range []uint64{30, 10, 20, 40} {
		if err := store.Put(k, []byte{byte(k)}); err != nil {
			log.Fatal(err)
		}
	}
	_ = store.Scan(10, 30, func(k uint64, _ []byte) bool {
		fmt.Println(k)
		return true
	})
	// Output:
	// 10
	// 20
	// 30
}

// ExampleStore_SaveModel shows persisting a trained model and reopening a
// store without retraining.
func ExampleStore_SaveModel() {
	cfg := e2nvm.Config{SegmentSize: 64, NumSegments: 128, Clusters: 4, TrainEpochs: 4, Seed: 1}
	s1, err := e2nvm.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s1.SaveModel(&buf); err != nil {
		log.Fatal(err)
	}
	s2, err := e2nvm.OpenWithModel(cfg, &buf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("clusters:", s2.Clusters())
	// Output:
	// clusters: 4
}

// ExampleStore_NewBatcher shows coalescing small writes into batch records.
func ExampleStore_NewBatcher() {
	store, err := e2nvm.Open(e2nvm.Config{
		SegmentSize: 128, NumSegments: 128, Clusters: 4, TrainEpochs: 4, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	b, err := store.NewBatcher(0)
	if err != nil {
		log.Fatal(err)
	}
	store.ResetMetrics()
	for k := uint64(0); k < 30; k++ {
		if err := b.Put(k, []byte{byte(k)}); err != nil {
			log.Fatal(err)
		}
	}
	if err := b.Flush(); err != nil {
		log.Fatal(err)
	}
	v, _, _ := b.Get(5)
	fmt.Println("value:", v[0])
	fmt.Println("device writes under 30:", store.Metrics().Writes < 30)
	// Output:
	// value: 5
	// device writes under 30: true
}

// ExampleStore_PutBatch shows the batch write/read calls: each applies its
// items in index order exactly as a loop of Put/GetInto would, and the
// optional errs/oks slices carry per-item outcomes without extra
// allocation.
func ExampleStore_PutBatch() {
	store, err := e2nvm.Open(e2nvm.Config{
		SegmentSize: 64, NumSegments: 128, Clusters: 4, TrainEpochs: 4, Seed: 1,
		Shards: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	keys := []uint64{1, 2, 3}
	values := [][]byte{[]byte("a"), []byte("bb"), []byte("ccc")}
	errs := make([]error, len(keys)) // per-item outcomes; nil to skip
	if err := store.PutBatch(keys, values, errs); err != nil {
		log.Fatal(err)
	}

	// GetBatch reuses dsts' backing arrays, like GetInto; a missing key
	// is oks[i] = false, not an error.
	lookup := []uint64{2, 3, 99}
	dsts := make([][]byte, len(lookup))
	oks := make([]bool, len(lookup))
	if err := store.GetBatch(lookup, dsts, oks, nil); err != nil {
		log.Fatal(err)
	}
	for i, k := range lookup {
		if oks[i] {
			fmt.Printf("%d=%s\n", k, dsts[i])
		} else {
			fmt.Printf("%d missing\n", k)
		}
	}
	// Output:
	// 2=bb
	// 3=ccc
	// 99 missing
}
