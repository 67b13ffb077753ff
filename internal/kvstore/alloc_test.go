package kvstore

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"e2nvm/internal/nvm"
)

var errUnparsable = errors.New("unparsable image")

// byteClass predicts an image's cluster from its first byte and fails on
// images whose first byte is bad. It has no batch path.
type byteClass struct {
	k   int
	bad byte
}

func (p byteClass) PredictBytes(b []byte) (int, error) {
	if len(b) == 0 || b[0] == p.bad {
		return 0, errUnparsable
	}
	return int(b[0]) % p.k, nil
}

// batchByteClass is byteClass with a PredictBytesBatch that follows
// core.Model's contract: a failed item reports -1 and the first failure
// is returned.
type batchByteClass struct{ byteClass }

func (p batchByteClass) PredictBytesBatch(imgs [][]byte) ([]int, error) {
	out := make([]int, len(imgs))
	var first error
	for i, img := range imgs {
		c, err := p.PredictBytes(img)
		if err != nil {
			c = -1
			if first == nil {
				first = err
			}
		}
		out[i] = c
	}
	return out, first
}

// seqPredictor hides a predictor's batch path, the shape of a PNW-style
// adapter.
type seqPredictor struct{ p Predictor }

func (s seqPredictor) PredictBytes(b []byte) (int, error) { return s.p.PredictBytes(b) }

// drainClusters pops every cluster of a in cluster order, each in its FIFO
// order.
func drainClusters(a *ClusteredAllocator) [][]int {
	pool := a.Pool()
	out := make([][]int, pool.K())
	for c := range out {
		for pool.ClusterSizes()[c] > 0 {
			addr, _, _ := pool.Get(c)
			out[c] = append(out[c], addr)
		}
	}
	return out
}

// TestClusteredAllocatorBatchAndSequentialFillAgree: the pool fill gives
// the same per-cluster FIFO order whether the predictor has a parallel
// batch path (core.Model) or only PredictBytes (a PNW-style adapter).
func TestClusteredAllocatorBatchAndSequentialFillAgree(t *testing.T) {
	s := openStore(t, 32, 128, Options{})
	model := s.Model()
	addrs := addrSpan(0, 128)
	r := rand.New(rand.NewSource(5))
	r.Shuffle(len(addrs), func(i, j int) { addrs[i], addrs[j] = addrs[j], addrs[i] })

	batch, err := NewClusteredAllocator(model, model.K(), s.Device(), addrs)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := NewClusteredAllocator(seqPredictor{model}, model.K(), s.Device(), addrs)
	if err != nil {
		t.Fatal(err)
	}
	got, want := drainClusters(batch), drainClusters(seq)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("batch fill %v != sequential fill %v", got, want)
	}
	nonEmpty := 0
	for _, c := range got {
		if len(c) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 2 {
		t.Fatalf("fill used %d clusters; the comparison needs at least 2", nonEmpty)
	}
}

// TestFillPoolSkipsFailedSlot: a predictor that fails on one address still
// pools the others, in address order, and the fill returns that error —
// through the sequential path and the batch path alike.
func TestFillPoolSkipsFailedSlot(t *testing.T) {
	dev, err := nvm.NewDevice(nvm.DefaultConfig(4, 8))
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 8; a++ {
		if err := dev.FillSegment(a, []byte{byte(a), 0, 0, 0}); err != nil {
			t.Fatal(err)
		}
	}
	const bad = 5
	for _, pred := range []Predictor{byteClass{k: 3, bad: bad}, batchByteClass{byteClass{k: 3, bad: bad}}} {
		var got []int
		added, err := fillPool(pred, dev, addrSpan(0, 8), func(c, addr int) {
			if c != addr%3 {
				t.Errorf("%T: segment %d pooled under cluster %d, want %d", pred, addr, c, addr%3)
			}
			got = append(got, addr)
		})
		if !errors.Is(err, errUnparsable) {
			t.Fatalf("%T: err = %v, want the predictor's error", pred, err)
		}
		if want := []int{0, 1, 2, 3, 4, 6, 7}; added != len(want) || !reflect.DeepEqual(got, want) {
			t.Fatalf("%T: pooled %v (added %d), want %v", pred, got, added, want)
		}
		if _, err := NewClusteredAllocator(pred, 3, dev, addrSpan(0, 8)); !errors.Is(err, errUnparsable) {
			t.Fatalf("%T: NewClusteredAllocator err = %v, want the predictor's error", pred, err)
		}
	}
}

// TestClusteredAllocatorCountsFallbacks: a Place whose predicted cluster is
// empty is served by another cluster and counted; a Place served by its
// own cluster is not.
func TestClusteredAllocatorCountsFallbacks(t *testing.T) {
	dev, err := nvm.NewDevice(nvm.DefaultConfig(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	// Every segment holds zeros: the whole pool sits in cluster 0.
	alloc, err := NewClusteredAllocator(byteClass{k: 2, bad: 0xff}, 2, dev, addrSpan(0, 4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alloc.Place([]byte{0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if got := alloc.Fallbacks(); got != 0 {
		t.Fatalf("Fallbacks = %d after a Place served by its own cluster, want 0", got)
	}
	if _, err := alloc.Place([]byte{1, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if got := alloc.Fallbacks(); got != 1 {
		t.Fatalf("Fallbacks = %d after a Place into an empty cluster, want 1", got)
	}
	if got := alloc.FreeCount(); got != 2 {
		t.Fatalf("FreeCount = %d, want 2", got)
	}
}
