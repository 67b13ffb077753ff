package shard

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"e2nvm/internal/core"
	"e2nvm/internal/kvstore"
	"e2nvm/internal/nvm"
)

func quickModelCfg(seed int64) core.Config {
	return core.Config{K: 3, HiddenDim: 32, LatentDim: 4, Epochs: 3, JointEpochs: 1, BatchSize: 16, Seed: seed}
}

// newRouter builds n independent stores of numSegs segments each.
func newRouter(t *testing.T, n, segSize, numSegs int, opts kvstore.Options) *Router {
	t.Helper()
	stores := make([]Shard, n)
	for i := range stores {
		dev, err := nvm.NewDevice(nvm.DefaultConfig(segSize, numSegs))
		if err != nil {
			t.Fatal(err)
		}
		dev.Fill(rand.New(rand.NewSource(int64(42 + i))))
		s, err := kvstore.Open(dev, quickModelCfg(int64(1+i)), opts)
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = s
	}
	r, err := New(stores)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewRejectsEmpty(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("expected error for empty store list")
	}
}

func TestOfIsStableAndInRange(t *testing.T) {
	r := newRouter(t, 4, 32, 32, kvstore.Options{})
	counts := make([]int, r.N())
	for k := uint64(0); k < 4096; k++ {
		i := r.Of(k)
		if i < 0 || i >= r.N() {
			t.Fatalf("Of(%d) = %d out of range", k, i)
		}
		if j := r.Of(k); j != i {
			t.Fatalf("Of(%d) unstable: %d then %d", k, i, j)
		}
		counts[i]++
	}
	// SplitMix64 must spread dense sequential keys roughly evenly: each
	// shard should hold 1024±25% of the 4096 keys.
	for i, c := range counts {
		if c < 768 || c > 1280 {
			t.Fatalf("shard %d received %d of 4096 sequential keys: %v", i, c, counts)
		}
	}
}

func TestRoutedOpsAndLen(t *testing.T) {
	r := newRouter(t, 3, 32, 64, kvstore.Options{})
	const keys = 48
	for k := uint64(0); k < keys; k++ {
		v := []byte(fmt.Sprintf("v-%d", k))
		if err := r.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	if r.Len() != keys {
		t.Fatalf("Len = %d, want %d", r.Len(), keys)
	}
	// Each key must live in exactly the shard Of says, and only there.
	for k := uint64(0); k < keys; k++ {
		want := []byte(fmt.Sprintf("v-%d", k))
		v, ok, err := r.Get(k)
		if err != nil || !ok || !bytes.Equal(v, want) {
			t.Fatalf("Get(%d) = (%q,%v,%v)", k, v, ok, err)
		}
		for i := 0; i < r.N(); i++ {
			_, ok, err := r.Serving(i).Get(k)
			if err != nil {
				t.Fatal(err)
			}
			if ok != (i == r.Of(k)) {
				t.Fatalf("key %d found=%v in shard %d, routed to %d", k, ok, i, r.Of(k))
			}
		}
	}
	buf := make([]byte, 0, 16)
	for k := uint64(0); k < keys; k++ {
		v, ok, err := r.GetInto(k, buf)
		if err != nil || !ok || !bytes.Equal(v, []byte(fmt.Sprintf("v-%d", k))) {
			t.Fatalf("GetInto(%d) = (%q,%v,%v)", k, v, ok, err)
		}
		buf = v[:0]
	}
	for k := uint64(0); k < keys; k += 2 {
		ok, err := r.Delete(k)
		if err != nil || !ok {
			t.Fatalf("Delete(%d) = (%v,%v)", k, ok, err)
		}
	}
	if r.Len() != keys/2 {
		t.Fatalf("Len after deletes = %d, want %d", r.Len(), keys/2)
	}
	if st := sumStats(r); st.Puts != keys || st.Deletes != keys/2 {
		t.Fatalf("Stats summed over shards = %+v", st)
	}
}

// sumStats folds every shard's serving-store counters.
func sumStats(r *Router) kvstore.Stats {
	var agg kvstore.Stats
	for i := 0; i < r.N(); i++ {
		agg.Add(r.Serving(i).Stats())
	}
	return agg
}

// sumHealth folds every shard's serving-store capacity.
func sumHealth(r *Router) kvstore.Health {
	var agg kvstore.Health
	for i := 0; i < r.N(); i++ {
		agg.Add(r.Serving(i).Health())
	}
	return agg
}

func TestScanMergesInKeyOrder(t *testing.T) {
	r := newRouter(t, 4, 32, 64, kvstore.Options{})
	const keys = 64
	for k := uint64(0); k < keys; k++ {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], k)
		if err := r.Put(k, b[:]); err != nil {
			t.Fatal(err)
		}
	}
	var visited []uint64
	err := r.Scan(10, 49, func(k uint64, v []byte) bool {
		if got := binary.LittleEndian.Uint64(v); got != k {
			t.Fatalf("key %d carries value %d", k, got)
		}
		visited = append(visited, k)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(visited) != 40 {
		t.Fatalf("scan visited %d keys, want 40", len(visited))
	}
	for i, k := range visited {
		if k != uint64(10+i) {
			t.Fatalf("merge out of order at %d: got %d, want %d", i, k, 10+i)
		}
	}
	// Early termination.
	n := 0
	if err := r.Scan(0, ^uint64(0), func(uint64, []byte) bool { n++; return n < 7 }); err != nil {
		t.Fatal(err)
	}
	if n != 7 {
		t.Fatalf("early stop visited %d, want 7", n)
	}
	// Re-entrancy: the merged scan holds no locks during the callback.
	if err := r.Scan(0, 5, func(k uint64, _ []byte) bool {
		if _, ok, err := r.Get(k); err != nil || !ok {
			t.Fatalf("re-entrant Get(%d) = (%v,%v)", k, ok, err)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
}

func TestHealthAndScrubAggregate(t *testing.T) {
	r := newRouter(t, 2, 32, 64, kvstore.Options{DegradeThreshold: 0.05})
	h := sumHealth(r)
	if h.DataSegments != 128 || h.PoolFree != 128 || h.Degraded {
		t.Fatalf("fresh Health = %+v", h)
	}
	// Fence enough of shard 0's zone to degrade it; shard 1 stays clean.
	for a := 0; a < 8; a++ {
		if err := r.Serving(0).Device().FailSegment(a); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Scrub(128); err != nil {
		t.Fatal(err)
	}
	h = sumHealth(r)
	if h.Retired < 4 {
		t.Fatalf("Health.Retired = %d, want >= 4 after scrubbing fenced segments", h.Retired)
	}
	if !h.Degraded {
		t.Fatalf("aggregate Health must surface the degraded shard: %+v", h)
	}
	if d0, d1 := r.Serving(0).Health().Degraded, r.Serving(1).Health().Degraded; !d0 || d1 {
		t.Fatalf("per-shard degradation = %v/%v, want shard 0 only", d0, d1)
	}
	rep, err := r.Scrub(128)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scanned != 128 {
		t.Fatalf("Scrub scanned %d, want the full 128 budget", rep.Scanned)
	}
}

func TestScrubSmallBudgetRotatesAcrossShards(t *testing.T) {
	const n = 4
	r := newRouter(t, n, 32, 16, kvstore.Options{})
	// Fence segment 0 of every shard's zone. Each shard's first scrubbed
	// segment is its own address 0, so a shard retires a segment exactly
	// when a Scrub budget unit actually reaches it.
	for i := 0; i < n; i++ {
		if err := r.Serving(i).Device().FailSegment(0); err != nil {
			t.Fatal(err)
		}
	}
	// A non-positive budget examines nothing and leaves the rotation where
	// it was: a negative remainder must not walk the start backwards.
	for _, budget := range []int{0, -3} {
		rep, err := r.Scrub(budget)
		if err != nil || rep != (kvstore.ScrubReport{}) {
			t.Fatalf("Scrub(%d) = (%+v, %v), want an empty report", budget, rep, err)
		}
	}
	// A budget of 1 over 4 shards rounds every even share to zero; the
	// remainder must rotate, so 4 calls reach all 4 shards in order. (The
	// old fixed split handed the single unit to shard 0 every time.)
	for call := 0; call < n; call++ {
		rep, err := r.Scrub(1)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Scanned != 1 {
			t.Fatalf("call %d scanned %d segments, want exactly the budget of 1", call, rep.Scanned)
		}
		if got := r.Serving(call).Health().Retired; got != 1 {
			t.Fatalf("unit budget %d did not reach shard %d (retired %d)", call, call, got)
		}
	}
	for i := 0; i < n; i++ {
		if got := r.Serving(i).Health().Retired; got != 1 {
			t.Fatalf("shard %d retired %d segments after 4 unit budgets, want 1 (remainder not rotated)", i, got)
		}
	}
	// Remainders also rotate when the even share is nonzero: budget n+1
	// hands the extra unit to the shard after where the rotation stopped.
	rep, err := r.Scrub(n + 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scanned != n+1 {
		t.Fatalf("Scrub scanned %d, want the full %d budget", rep.Scanned, n+1)
	}
}

func TestRetrainFansOut(t *testing.T) {
	r := newRouter(t, 2, 32, 48, kvstore.Options{})
	if err := r.Retrain(); err != nil {
		t.Fatal(err)
	}
	if st := sumStats(r); st.Retrains != 2 {
		t.Fatalf("Retrains summed over shards = %d, want one per shard", st.Retrains)
	}
}
