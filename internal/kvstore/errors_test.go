package kvstore

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"e2nvm/internal/core"
	"e2nvm/internal/nvm"
	"e2nvm/internal/txn"
)

// trainNarrowModel trains a model whose InputBits disagree with the target
// device geometry (a misconfigured store).
func trainNarrowModel(t *testing.T, bits int) *core.Model {
	t.Helper()
	r := rand.New(rand.NewSource(3))
	data := make([][]float64, 40)
	for i := range data {
		row := make([]float64, bits)
		for j := range row {
			row[j] = float64(r.Intn(2))
		}
		data[i] = row
	}
	cfg := quickModelCfg()
	cfg.InputBits = bits
	m, err := core.Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestOpenWithBadGeometryIsErrBadSegment: a model trained for a different
// segment size must be rejected with the sentinel, not a panic.
func TestOpenWithBadGeometryIsErrBadSegment(t *testing.T) {
	dev, err := nvm.NewDevice(nvm.DefaultConfig(32, 16))
	if err != nil {
		t.Fatal(err)
	}
	model := trainNarrowModel(t, 64) // != 32*8
	if _, err := OpenWith(dev, model, Options{}); !errors.Is(err, ErrBadSegment) {
		t.Fatalf("OpenWith geometry mismatch: err = %v, want ErrBadSegment", err)
	}
	cfg := quickModelCfg()
	cfg.InputBits = 64
	if _, err := Open(dev, cfg, Options{}); !errors.Is(err, ErrBadSegment) {
		t.Fatalf("Open geometry mismatch: err = %v, want ErrBadSegment", err)
	}
	if !errors.Is(ErrBadSegment, core.ErrBadSegment) {
		t.Fatal("kvstore.ErrBadSegment must re-export core.ErrBadSegment")
	}
}

// TestClusteredAllocatorOversizedValue: Place on a value wider than the
// model's segment returns ErrBadSegment instead of panicking, and Release
// of unparsable content degrades to cluster 0 instead of crashing.
func TestClusteredAllocatorOversizedValue(t *testing.T) {
	model := trainNarrowModel(t, 32) // 4-byte segments
	dev, err := nvm.NewDevice(nvm.DefaultConfig(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := NewClusteredAllocator(model, model.K(), dev, []int{1})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := alloc.Place(make([]byte, 100)); !errors.Is(err, ErrBadSegment) {
		t.Fatalf("Place oversized: err = %v, want ErrBadSegment", err)
	}
	if _, err := alloc.Place(make([]byte, 4)); err != nil {
		t.Fatalf("Place well-sized: %v", err)
	}
	alloc.Release(1, make([]byte, 100)) // must not panic
	if alloc.FreeCount() != 1 {
		t.Fatalf("FreeCount = %d after Release, want 1", alloc.FreeCount())
	}
}

// TestOutOfRangeIsSentinel: device and transaction out-of-range accesses
// all satisfy errors.Is(err, ErrOutOfRange).
func TestOutOfRangeIsSentinel(t *testing.T) {
	dev, err := nvm.NewDevice(nvm.DefaultConfig(16, 8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Read(99); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("device Read out of range: err = %v, want ErrOutOfRange", err)
	}
	if _, err := dev.Write(-1, make([]byte, 16)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("device Write out of range: err = %v, want ErrOutOfRange", err)
	}
	// Larger segments so the redo-log entry header fits.
	logDev, err := nvm.NewDevice(nvm.DefaultConfig(32, 8))
	if err != nil {
		t.Fatal(err)
	}
	mgr, dataSegs, err := txn.NewManager(logDev, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Format(); err != nil {
		t.Fatal(err)
	}
	tx := mgr.Begin()
	if err := tx.Write(dataSegs, make([]byte, 32)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("txn Write into log zone: err = %v, want ErrOutOfRange", err)
	}
	tx.Abort()
}

// TestMisconfiguredStoreOperationsReturnErrors drives Put/Get/Delete on a
// store whose device was shrunk after open (simulating a configuration
// gone bad) and checks errors surface instead of panics.
func TestMisconfiguredStoreOperationsReturnErrors(t *testing.T) {
	s := openStore(t, 32, 16, Options{})
	// Force the index to point at an address the device rejects.
	s.mu.Lock()
	s.tree.Put(5, int64(1000))
	s.mu.Unlock()
	if _, _, err := s.Get(5); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("Get with out-of-range address: err = %v, want ErrOutOfRange", err)
	}
	if _, err := s.Delete(5); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("Delete with out-of-range address: err = %v, want ErrOutOfRange", err)
	}
}

// TestMisdirectedIndexEntryIsCorrupt plants an index entry that points one
// key at another key's segment — what a racing pool fill once produced.
// Every read path must report ErrCorrupt naming both keys rather than
// serve the other key's value.
func TestMisdirectedIndexEntryIsCorrupt(t *testing.T) {
	s := openStore(t, 32, 64, Options{})
	if err := s.Put(1, []byte("value-one")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(2, []byte("value-two")); err != nil {
		t.Fatal(err)
	}
	addr2, ok := s.tree.Get(2)
	if !ok {
		t.Fatal("key 2 not indexed")
	}
	s.tree.Put(1, addr2)

	check := func(op string, err error) {
		t.Helper()
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s on a misdirected entry: err = %v, want ErrCorrupt", op, err)
		}
		for _, want := range []string{"key 2", "key 1"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("%s error %q does not name %s", op, err, want)
			}
		}
	}
	v, found, err := s.Get(1)
	if found || v != nil {
		t.Fatalf("Get(1) served %q from key 2's segment", v)
	}
	check("Get", err)
	_, found, err = s.GetInto(1, nil)
	if found {
		t.Fatal("GetInto(1) reported found")
	}
	check("GetInto", err)
	_, _, found, err = s.NextInto(1, 1, nil)
	if found {
		t.Fatal("NextInto(1) reported found")
	}
	check("NextInto", err)
	err = s.Scan(0, 10, func(k uint64, v []byte) bool {
		if k == 1 {
			t.Fatalf("Scan delivered key 1 with %q", v)
		}
		return true
	})
	check("Scan", err)
	// The key the segment really holds still reads back.
	if v, found, err := s.Get(2); err != nil || !found || string(v) != "value-two" {
		t.Fatalf("Get(2) = (%q, %v, %v)", v, found, err)
	}
}
