package kvstore

import (
	"bytes"
	"math/rand"
	"testing"

	"e2nvm/internal/core"
	"e2nvm/internal/dap"
	"e2nvm/internal/index"
	"e2nvm/internal/nvm"
	"e2nvm/internal/padding"
	"e2nvm/internal/testutil"
)

func quickModelCfg() core.Config {
	return core.Config{K: 3, HiddenDim: 32, LatentDim: 4, Epochs: 4, JointEpochs: 1, BatchSize: 16, Seed: 1}
}

// openStore builds a store over a randomly seeded device.
func openStore(t *testing.T, segSize, numSegs int, opts Options) *Store {
	t.Helper()
	dev, err := nvm.NewDevice(nvm.DefaultConfig(segSize, numSegs))
	if err != nil {
		t.Fatal(err)
	}
	dev.Fill(rand.New(rand.NewSource(42)))
	s, err := Open(dev, quickModelCfg(), opts)
	if err != nil {
		t.Fatal(err)
	}
	dev.ResetStats() // ignore any setup activity
	return s
}

func TestOpenPopulatesPool(t *testing.T) {
	s := openStore(t, 32, 64, Options{})
	if s.Pool().Free() != 64 {
		t.Fatalf("pool free = %d, want 64", s.Pool().Free())
	}
	if s.Model().K() != 3 {
		t.Fatalf("K = %d, want 3", s.Model().K())
	}
	if s.MaxValue() != 32-19 {
		t.Fatalf("MaxValue = %d", s.MaxValue())
	}
}

func TestOpenRejectsMismatchedModelWidth(t *testing.T) {
	dev, err := nvm.NewDevice(nvm.DefaultConfig(32, 8))
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickModelCfg()
	cfg.InputBits = 64 // != 32*8
	if _, err := Open(dev, cfg, Options{}); err == nil {
		t.Fatal("expected width mismatch error")
	}
}

func TestPutGetDelete(t *testing.T) {
	s := openStore(t, 32, 64, Options{})
	if err := s.Put(7, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.Get(7)
	if err != nil || !ok || !bytes.Equal(v, []byte("hello")) {
		t.Fatalf("Get = (%q,%v,%v)", v, ok, err)
	}
	if _, ok, _ := s.Get(8); ok {
		t.Fatal("missing key found")
	}
	ok, err = s.Delete(7)
	if err != nil || !ok {
		t.Fatalf("Delete = (%v,%v)", ok, err)
	}
	if _, ok, _ := s.Get(7); ok {
		t.Fatal("deleted key still found")
	}
	if ok, _ := s.Delete(7); ok {
		t.Fatal("double delete succeeded")
	}
	st := s.Stats()
	if st.Puts != 1 || st.Gets != 1 || st.Deletes != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPutTooLarge(t *testing.T) {
	s := openStore(t, 32, 16, Options{})
	if err := s.Put(1, make([]byte, 30)); err == nil {
		t.Fatal("expected ErrValueTooLarge")
	}
}

func TestPutIfAbsent(t *testing.T) {
	s := openStore(t, 32, 64, Options{})
	wrote, err := s.PutIfAbsent(5, []byte("new"))
	if err != nil || !wrote {
		t.Fatalf("PutIfAbsent on empty key = (%v,%v), want wrote", wrote, err)
	}
	wrote, err = s.PutIfAbsent(5, []byte("stale"))
	if err != nil || wrote {
		t.Fatalf("PutIfAbsent on live key = (%v,%v), want no write", wrote, err)
	}
	v, ok, err := s.Get(5)
	if err != nil || !ok || !bytes.Equal(v, []byte("new")) {
		t.Fatalf("Get = (%q,%v,%v), want the first value kept", v, ok, err)
	}
	// After a delete the key is absent again.
	if ok, err := s.Delete(5); err != nil || !ok {
		t.Fatalf("Delete = (%v,%v)", ok, err)
	}
	wrote, err = s.PutIfAbsent(5, []byte("back"))
	if err != nil || !wrote {
		t.Fatalf("PutIfAbsent after delete = (%v,%v), want wrote", wrote, err)
	}
	if _, err := s.PutIfAbsent(6, make([]byte, 30)); err == nil {
		t.Fatal("expected ErrValueTooLarge")
	}
}

// TestPutIfAbsentRefreshesDensity: a store filled only through PutIfAbsent
// (live migration's write path) must keep the MemoryBased-padding density
// cache current like Put does — all-ones values over a half-dense device
// have to move the sample once densityRefreshEvery writes have landed.
func TestPutIfAbsentRefreshesDensity(t *testing.T) {
	dev, err := nvm.NewDevice(nvm.DefaultConfig(32, 2*densityRefreshEvery))
	if err != nil {
		t.Fatal(err)
	}
	dev.Fill(rand.New(rand.NewSource(42)))
	cfg := quickModelCfg()
	cfg.PadLocation, cfg.PadType, cfg.PadExplicit = padding.End, padding.MemoryBased, true
	s, err := Open(dev, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := s.cachedDensity()
	ones := bytes.Repeat([]byte{0xff}, s.MaxValue())
	for k := uint64(0); k < densityRefreshEvery; k++ {
		if wrote, err := s.PutIfAbsent(k, ones); err != nil || !wrote {
			t.Fatalf("PutIfAbsent(%d) = (%v,%v)", k, wrote, err)
		}
	}
	if after := s.cachedDensity(); after <= before {
		t.Fatalf("density cache still %v after %d PutIfAbsent calls of all-ones values (was %v)",
			after, densityRefreshEvery, before)
	}
}

func TestUpdateRecyclesOldSegment(t *testing.T) {
	s := openStore(t, 32, 16, Options{})
	if err := s.Put(1, []byte("aaaa")); err != nil {
		t.Fatal(err)
	}
	free := s.Pool().Free()
	if err := s.Put(1, []byte("bbbb")); err != nil {
		t.Fatal(err)
	}
	// Update pops one segment and recycles one: net unchanged.
	if got := s.Pool().Free(); got != free {
		t.Fatalf("pool free = %d after update, want %d", got, free)
	}
	v, _, _ := s.Get(1)
	if !bytes.Equal(v, []byte("bbbb")) {
		t.Fatalf("value after update = %q", v)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestDeleteFlagBitIsOneFlip(t *testing.T) {
	s := openStore(t, 32, 16, Options{})
	if err := s.Put(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	before := s.Device().Stats().BitsFlipped
	if _, err := s.Delete(1); err != nil {
		t.Fatal(err)
	}
	after := s.Device().Stats().BitsFlipped
	if after-before != 1 {
		t.Fatalf("delete flipped %d bits, want exactly 1 (the flag)", after-before)
	}
}

func TestScan(t *testing.T) {
	s := openStore(t, 32, 64, Options{})
	for k := uint64(0); k < 10; k++ {
		if err := s.Put(k, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	var keys []uint64
	if err := s.Scan(3, 7, func(k uint64, v []byte) bool {
		if v[0] != byte(k) {
			t.Fatalf("scan value mismatch at %d", k)
		}
		keys = append(keys, k)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 5 || keys[0] != 3 || keys[4] != 7 {
		t.Fatalf("scan keys = %v", keys)
	}
}

func TestNoSpace(t *testing.T) {
	s := openStore(t, 32, 4, Options{})
	var err error
	for k := uint64(0); k < 10; k++ {
		if err = s.Put(k, []byte{byte(k)}); err != nil {
			break
		}
	}
	if err == nil {
		t.Fatal("expected ErrNoSpace when keys exceed segments")
	}
}

func TestArbitraryPlacementUpdatesInPlace(t *testing.T) {
	s := openStore(t, 32, 16, Options{Placement: PlaceArbitrary})
	if err := s.Put(1, []byte("aa")); err != nil {
		t.Fatal(err)
	}
	free := s.Pool().Free()
	if err := s.Put(1, []byte("bb")); err != nil {
		t.Fatal(err)
	}
	// In-place update consumes no pool entries.
	if got := s.Pool().Free(); got != free {
		t.Fatalf("pool free changed on in-place update: %d -> %d", free, got)
	}
	v, _, _ := s.Get(1)
	if !bytes.Equal(v, []byte("bb")) {
		t.Fatalf("value = %q", v)
	}
}

func TestPlacementString(t *testing.T) {
	if PlaceE2NVM.String() != "e2nvm" || PlaceArbitrary.String() != "arbitrary" {
		t.Fatal("placement names wrong")
	}
}

// TestE2NVMPlacementReducesFlips is the headline end-to-end comparison: the
// same workload against the same initial device contents flips fewer bits
// under E2-NVM placement than under arbitrary placement.
func TestE2NVMPlacementReducesFlips(t *testing.T) {
	run := func(p Placement) uint64 {
		segSize := 32
		numSegs := 256
		dev, err := nvm.NewDevice(nvm.DefaultConfig(segSize, numSegs))
		if err != nil {
			t.Fatal(err)
		}
		// Seed the device with clustered content: half the segments hold
		// mostly-zero patterns, half mostly-one patterns.
		r := rand.New(rand.NewSource(5))
		for a := 0; a < numSegs; a++ {
			img := make([]byte, segSize)
			if a%2 == 0 {
				for i := range img {
					img[i] = byte(r.Intn(4)) // sparse ones
				}
			} else {
				for i := range img {
					img[i] = byte(255 - r.Intn(4)) // dense ones
				}
			}
			if err := dev.FillSegment(a, img); err != nil {
				t.Fatal(err)
			}
		}
		cfg := quickModelCfg()
		cfg.K = 2
		s, err := Open(dev, cfg, Options{Placement: p})
		if err != nil {
			t.Fatal(err)
		}
		dev.ResetStats()
		// Write a mixture of sparse and dense values.
		wr := rand.New(rand.NewSource(6))
		for k := uint64(0); k < 128; k++ {
			v := make([]byte, segSize-19)
			if k%2 == 0 {
				for i := range v {
					v[i] = byte(wr.Intn(4))
				}
			} else {
				for i := range v {
					v[i] = byte(255 - wr.Intn(4))
				}
			}
			if err := s.Put(k, v); err != nil {
				t.Fatal(err)
			}
		}
		return dev.Stats().BitsFlipped
	}
	aware := run(PlaceE2NVM)
	arbitrary := run(PlaceArbitrary)
	if float64(aware) > 0.8*float64(arbitrary) {
		t.Fatalf("E2-NVM placement flips %d not well below arbitrary %d", aware, arbitrary)
	}
}

func TestRetrainRebuildsPool(t *testing.T) {
	s := openStore(t, 32, 32, Options{})
	for k := uint64(0); k < 8; k++ {
		if err := s.Put(k, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Retrain(); err != nil {
		t.Fatal(err)
	}
	// 8 segments in use, the rest free.
	if got := s.Pool().Free(); got != 24 {
		t.Fatalf("pool free after retrain = %d, want 24", got)
	}
	if s.Stats().Retrains != 1 {
		t.Fatalf("Retrains = %d", s.Stats().Retrains)
	}
	// Data still readable under the new model.
	for k := uint64(0); k < 8; k++ {
		v, ok, err := s.Get(k)
		if err != nil || !ok || v[0] != byte(k) {
			t.Fatalf("Get(%d) after retrain = (%v,%v,%v)", k, v, ok, err)
		}
	}
}

func TestNeedsRetrainSignal(t *testing.T) {
	s := openStore(t, 32, 16, Options{LowWater: 3})
	// Drain the pool far enough that some cluster dips below 3.
	for k := uint64(0); k < 10; k++ {
		if err := s.Put(k, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	if !s.NeedsRetrain() {
		t.Fatal("NeedsRetrain should fire after draining the pool")
	}
}

func TestCrashSafeMode(t *testing.T) {
	dev, err := nvm.NewDevice(nvm.DefaultConfig(32, 64))
	if err != nil {
		t.Fatal(err)
	}
	dev.Fill(rand.New(rand.NewSource(42)))
	s, err := Open(dev, quickModelCfg(), Options{CrashSafe: true})
	if err != nil {
		t.Fatal(err)
	}
	// The redo log reserves segments: fewer than 64 are poolable.
	if s.Pool().Free() >= 64 {
		t.Fatalf("pool free = %d, expected log reservation", s.Pool().Free())
	}
	baseline := openStore(t, 32, 64, Options{})
	dev.ResetStats()
	baseline.Device().ResetStats()
	for k := uint64(0); k < 20; k++ {
		if err := s.Put(k, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
		if err := baseline.Put(k, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < 20; k++ {
		v, ok, err := s.Get(k)
		if err != nil || !ok || v[0] != byte(k) {
			t.Fatalf("crash-safe Get(%d) = (%v,%v,%v)", k, v, ok, err)
		}
	}
	// Transactions amplify writes: log staging + commit + apply.
	cs := dev.Stats().Writes
	raw := baseline.Device().Stats().Writes
	if cs <= raw {
		t.Fatalf("crash-safe writes %d not above raw %d (logging missing?)", cs, raw)
	}
	// Recovery over a crash-safe store finds the data and skips the log.
	r, err := RecoverWith(dev, s.Model(), Options{CrashSafe: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 20 {
		t.Fatalf("recovered Len = %d, want 20", r.Len())
	}
}

// TestCrashSafePutAtomicity injects crashes at every point of a put's
// commit protocol and verifies the store recovers to a consistent state:
// the key is either fully present with the new value or absent.
func TestCrashSafePutAtomicity(t *testing.T) {
	for failAt := 0; failAt < 6; failAt++ {
		dev, err := nvm.NewDevice(nvm.DefaultConfig(32, 64))
		if err != nil {
			t.Fatal(err)
		}
		dev.Fill(rand.New(rand.NewSource(42)))
		s, err := Open(dev, quickModelCfg(), Options{CrashSafe: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Put(1, []byte("stable")); err != nil {
			t.Fatal(err)
		}
		s.TxnManager().FailAfter(failAt)
		err = s.Put(2, []byte("maybe"))
		s.TxnManager().FailAfter(-1)
		r, rerr := RecoverWith(dev, s.Model(), Options{CrashSafe: true})
		if rerr != nil {
			t.Fatalf("failAt=%d: recover: %v", failAt, rerr)
		}
		// Key 1 must always survive.
		v, ok, gerr := r.Get(1)
		if gerr != nil || !ok || string(v) != "stable" {
			t.Fatalf("failAt=%d: key 1 = (%q,%v,%v)", failAt, v, ok, gerr)
		}
		// Key 2 is all-or-nothing.
		v, ok, gerr = r.Get(2)
		if gerr != nil {
			t.Fatalf("failAt=%d: key 2 read: %v", failAt, gerr)
		}
		if ok && string(v) != "maybe" {
			t.Fatalf("failAt=%d: key 2 torn: %q", failAt, v)
		}
		if err == nil && !ok {
			t.Fatalf("failAt=%d: put reported success but key lost", failAt)
		}
	}
}

func TestIncrementalIndexing(t *testing.T) {
	dev, err := nvm.NewDevice(nvm.DefaultConfig(32, 64))
	if err != nil {
		t.Fatal(err)
	}
	dev.Fill(rand.New(rand.NewSource(42)))
	s, err := Open(dev, quickModelCfg(), Options{IndexFraction: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if s.Indexed() != 16 || s.Pool().Free() != 16 {
		t.Fatalf("indexed/free = %d/%d, want 16/16", s.Indexed(), s.Pool().Free())
	}
	added, err := s.IndexMore(10)
	if err != nil || added != 10 {
		t.Fatalf("IndexMore = (%d,%v)", added, err)
	}
	if s.Indexed() != 26 || s.Pool().Free() != 26 {
		t.Fatalf("after IndexMore: indexed/free = %d/%d", s.Indexed(), s.Pool().Free())
	}
	// Indexing past the end clamps.
	added, err = s.IndexMore(1000)
	if err != nil || added != 64-26 {
		t.Fatalf("IndexMore overflow = (%d,%v), want %d", added, err, 64-26)
	}
	if s.Indexed() != 64 {
		t.Fatalf("Indexed = %d", s.Indexed())
	}
	if added, _ := s.IndexMore(5); added != 0 {
		t.Fatal("IndexMore past end should add nothing")
	}
	if _, err := Open(dev, quickModelCfg(), Options{IndexFraction: 1.5}); err == nil {
		t.Fatal("IndexFraction > 1 accepted")
	}
}

func TestIncrementalIndexingSurvivesRetrain(t *testing.T) {
	dev, err := nvm.NewDevice(nvm.DefaultConfig(32, 32))
	if err != nil {
		t.Fatal(err)
	}
	dev.Fill(rand.New(rand.NewSource(7)))
	s, err := Open(dev, quickModelCfg(), Options{IndexFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 4; k++ {
		if err := s.Put(k, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Retrain(); err != nil {
		t.Fatal(err)
	}
	// Retrain rebuilds only the indexed half: 16 indexed, 4 in use.
	if got := s.Pool().Free(); got != 12 {
		t.Fatalf("pool free after retrain = %d, want 12", got)
	}
}

func TestAutoRetrainFires(t *testing.T) {
	dev, err := nvm.NewDevice(nvm.DefaultConfig(32, 24))
	if err != nil {
		t.Fatal(err)
	}
	dev.Fill(rand.New(rand.NewSource(42)))
	cfg := quickModelCfg()
	cfg.Epochs = 2
	cfg.JointEpochs = -1
	// LowWater = 8 over 24 segments across 3 clusters: some cluster is low
	// immediately, so the first put schedules a background retrain.
	s, err := Open(dev, cfg, Options{AutoRetrain: true, LowWater: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	// The first put scheduled the retrain synchronously, so Quiesce joins
	// it deterministically — no polling.
	s.Quiesce()
	if s.Stats().Retrains == 0 {
		t.Fatal("background retrain never completed")
	}
	// The store keeps serving during and after the swap.
	v, ok, err := s.Get(1)
	if err != nil || !ok || v[0] != 'x' {
		t.Fatalf("Get after auto-retrain = (%v,%v,%v)", v, ok, err)
	}
}

// TestRecoverRebuildsFromDevice simulates a crash (the DRAM index and pool
// vanish) and rebuilds the store by scanning the self-describing records.
func TestRecoverRebuildsFromDevice(t *testing.T) {
	s := openStore(t, 32, 64, Options{})
	for k := uint64(0); k < 20; k++ {
		if err := s.Put(k, []byte{byte(k), byte(k * 3)}); err != nil {
			t.Fatal(err)
		}
	}
	// Exercise updates and deletes so stale records exist on the device.
	for k := uint64(0); k < 10; k++ {
		if err := s.Put(k, []byte{byte(k + 100)}); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(15); k < 20; k++ {
		if _, err := s.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	dev := s.Device()
	// "Crash": discard the store; recover from the device alone, reusing
	// the trained model (RecoverWith) to keep the test fast.
	r, err := RecoverWith(dev, s.Model(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 15 {
		t.Fatalf("recovered Len = %d, want 15", r.Len())
	}
	for k := uint64(0); k < 10; k++ {
		v, ok, err := r.Get(k)
		if err != nil || !ok || v[0] != byte(k+100) {
			t.Fatalf("recovered Get(%d) = (%v,%v,%v)", k, v, ok, err)
		}
	}
	for k := uint64(10); k < 15; k++ {
		v, ok, err := r.Get(k)
		if err != nil || !ok || v[0] != byte(k) {
			t.Fatalf("recovered Get(%d) = (%v,%v,%v)", k, v, ok, err)
		}
	}
	for k := uint64(15); k < 20; k++ {
		if _, ok, _ := r.Get(k); ok {
			t.Fatalf("deleted key %d resurrected", k)
		}
	}
	// Pool + index together must cover the device exactly once.
	if r.Pool().Free()+r.Len() != dev.NumSegments() {
		t.Fatalf("pool %d + live %d != %d segments", r.Pool().Free(), r.Len(), dev.NumSegments())
	}
	// The recovered store keeps working.
	if err := r.Put(99, []byte("post-recovery")); err != nil {
		t.Fatal(err)
	}
	v, ok, _ := r.Get(99)
	if !ok || string(v) != "post-recovery" {
		t.Fatal("recovered store cannot serve writes")
	}
}

// TestRecoverTrainsWhenNoModel exercises the full Recover entry point.
func TestRecoverTrainsWhenNoModel(t *testing.T) {
	s := openStore(t, 32, 32, Options{})
	if err := s.Put(5, []byte("five")); err != nil {
		t.Fatal(err)
	}
	r, err := Recover(s.Device(), quickModelCfg(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	v, ok, err := r.Get(5)
	if err != nil || !ok || string(v) != "five" {
		t.Fatalf("Get = (%q,%v,%v)", v, ok, err)
	}
}

func TestClusteredAllocatorWithStores(t *testing.T) {
	// Plug a B+-Tree into E2-NVM through ClusteredAllocator and confirm
	// correct behaviour end to end.
	segSize := 64
	numSegs := 256
	dev, err := nvm.NewDevice(nvm.DefaultConfig(segSize, numSegs))
	if err != nil {
		t.Fatal(err)
	}
	dev.Fill(rand.New(rand.NewSource(3)))
	s, err := Open(dev, quickModelCfg(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Tree pages take the first 64 segments; values are placed through
	// the allocator over the rest.
	meta := index.NewFreeList(addrSpan(0, 64))
	alloc, err := NewClusteredAllocator(s.Model(), s.Model().K(), dev, addrSpan(64, numSegs))
	if err != nil {
		t.Fatal(err)
	}
	tree, err := index.NewBPTree(dev, meta, alloc)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(9))
	ref := map[uint64][]byte{}
	for i := 0; i < 300; i++ {
		k := uint64(r.Intn(60))
		v := make([]byte, 16)
		r.Read(v)
		if err := tree.Put(k, v); err != nil {
			t.Fatal(err)
		}
		ref[k] = v
	}
	for k, want := range ref {
		got, ok, err := tree.Get(k)
		if err != nil || !ok || !bytes.Equal(got, want) {
			t.Fatalf("plugged B+-Tree Get(%d) = (%x,%v,%v)", k, got, ok, err)
		}
	}
	if alloc.FreeCount() <= 0 {
		t.Fatal("allocator exhausted unexpectedly")
	}
}

// addrSpan returns [lo, hi).
func addrSpan(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for a := lo; a < hi; a++ {
		out = append(out, a)
	}
	return out
}

// TestKeyTempSteering pins the hot/cold placement policy end to end: with
// Options.KeyTemp installed, placements consult per-cluster wear (recycles
// carry the segment's write count) and steered placements are counted
// separately from empty-cluster fallbacks.
func TestKeyTempSteering(t *testing.T) {
	hot := map[uint64]bool{1: true}
	s := openStore(t, 32, 64, Options{
		KeyTemp: func(key uint64) dap.Temp {
			if hot[key] {
				return dap.TempHot
			}
			return dap.TempCold
		},
	})
	// Burn wear into some segments: overwrite one key many times so its
	// recycled addresses carry high write counts.
	val := []byte("burn")
	for i := 0; i < 200; i++ {
		if err := s.Put(1, val); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Steered == 0 {
		t.Fatalf("no steered placements recorded: %+v", st)
	}
	// Wear is visible to the pool on the steering-enabled path.
	var worn bool
	for _, w := range s.Pool().ClusterWear() {
		if w > 0 {
			worn = true
		}
	}
	if !worn {
		t.Fatal("recycles did not carry segment wear into the pool")
	}
	// A cold key must still read back correctly after steering.
	if err := s.Put(2, []byte("cold")); err != nil {
		t.Fatal(err)
	}
	got, found, err := s.Get(2)
	if err != nil || !found || string(got) != "cold" {
		t.Fatalf("Get(2) = %q, %v, %v", got, found, err)
	}
	if got, found, err := s.Get(1); err != nil || !found || string(got) != "burn" {
		t.Fatalf("Get(1) = %q, %v, %v", got, found, err)
	}
}

// TestNilKeyTempUnchanged pins that a store without KeyTemp never records
// steered placements or pool wear — the pre-steering behavior.
func TestNilKeyTempUnchanged(t *testing.T) {
	s := openStore(t, 32, 64, Options{})
	for i := 0; i < 50; i++ {
		if err := s.Put(uint64(i%5), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Steered != 0 {
		t.Fatalf("Steered = %d without KeyTemp", st.Steered)
	}
	for _, w := range s.Pool().ClusterWear() {
		if w != 0 {
			t.Fatalf("pool wear tracked without KeyTemp: %v", s.Pool().ClusterWear())
		}
	}
}

// TestSingleOpZeroAlloc: the single-op serving paths allocate nothing once
// their scratch is warm — plain, through the redo log, and on a device
// whose worn segments the retire-and-retry path has already routed around.
func TestSingleOpZeroAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race-mode sync.Pool drops Puts, so the pooled predict scratch allocates by design")
	}
	const key = 3
	val := []byte("steady-val")
	put := func(t *testing.T, s *Store) {
		if err := s.Put(key, val); err != nil {
			t.Fatal(err)
		}
	}
	dst := make([]byte, 0, len(val))
	for _, tc := range []struct {
		name  string
		opts  Options
		stuck bool // stick the valid-flag cell of every 4th segment before warm-up
		op    func(t *testing.T, s *Store)
	}{
		{name: "Put/overwrite", op: put},
		{name: "GetInto", op: func(t *testing.T, s *Store) {
			if _, ok, err := s.GetInto(key, dst); err != nil || !ok {
				t.Fatalf("GetInto = (%v,%v)", ok, err)
			}
		}},
		{name: "Delete+Put", op: func(t *testing.T, s *Store) {
			if ok, err := s.Delete(key); err != nil || !ok {
				t.Fatalf("Delete = (%v,%v)", ok, err)
			}
			put(t, s)
		}},
		{name: "Put/crashsafe", opts: Options{CrashSafe: true}, op: put},
		{name: "Put/faulted", stuck: true, op: put},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const segs = 128
			s := openStore(t, 32, segs, tc.opts)
			if tc.stuck {
				for addr := 0; addr < segs; addr += 4 {
					if err := s.Device().InjectStuckAt(addr, 0); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Warm-up cycles the whole pool several times: scratch buffers
			// reach their final size and, in the stuck case, every segment
			// whose flag cell cannot be set or cleared has been retired.
			for i := 0; i < 4*segs; i++ {
				put(t, s)
			}
			if tc.stuck {
				// The record may be sitting on the last stuck segment, whose
				// flag cell then refuses to clear on the next overwrite.
				for i := 0; s.Stats().Retired < segs/4; i++ {
					if i == segs {
						t.Fatalf("warm-up retired %d of %d stuck segments", s.Stats().Retired, segs/4)
					}
					put(t, s)
				}
			}
			if n := testing.AllocsPerRun(100, func() { tc.op(t, s) }); n != 0 {
				t.Fatalf("%s allocates %v per op, want 0", tc.name, n)
			}
		})
	}
}
