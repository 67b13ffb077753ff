package core

import (
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"e2nvm/internal/bitvec"
	"e2nvm/internal/padding"
)

// mustP unwraps a predict result; test inputs are well-formed, so an error
// is a test bug (the panic fails the test, goroutine-safe unlike t.Fatal).
func mustP(c int, err error) int {
	if err != nil {
		panic(err)
	}
	return c
}

// segmentSet plants k clusters of segment bit-images.
func segmentSet(r *rand.Rand, n, k, bits int, noise float64) ([][]float64, []int) {
	protos := make([][]float64, k)
	for c := range protos {
		p := make([]float64, bits)
		for j := range p {
			if r.Intn(2) == 1 {
				p[j] = 1
			}
		}
		protos[c] = p
	}
	data := make([][]float64, n)
	labels := make([]int, n)
	for i := range data {
		c := r.Intn(k)
		labels[i] = c
		row := append([]float64(nil), protos[c]...)
		for j := range row {
			if r.Float64() < noise {
				row[j] = 1 - row[j]
			}
		}
		data[i] = row
	}
	return data, labels
}

func quickCfg(bits, k int) Config {
	return Config{
		InputBits: bits, K: k, HiddenDim: 32, LatentDim: 6,
		Epochs: 8, JointEpochs: 2, BatchSize: 16, Seed: 1,
	}
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(nil, quickCfg(16, 2)); err == nil {
		t.Fatal("expected error on empty data")
	}
	if _, err := Train([][]float64{{1, 0}}, Config{InputBits: 0}); err == nil {
		t.Fatal("expected error for InputBits 0")
	}
	if _, err := Train([][]float64{{1, 0, 1}}, quickCfg(16, 2)); err == nil {
		t.Fatal("expected error for wrong row width")
	}
	if _, err := Train([][]float64{{1, 0}}, Config{InputBits: 2, K: -1}); err == nil {
		t.Fatal("expected error for negative K")
	}
}

func TestTrainAndPredictGroupsSimilarContent(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	data, labels := segmentSet(r, 300, 3, 48, 0.03)
	m, err := Train(data, quickCfg(48, 3))
	if err != nil {
		t.Fatal(err)
	}
	if m.K() != 3 {
		t.Fatalf("K = %d, want 3", m.K())
	}
	// Purity of predictions vs planted labels.
	counts := make([]map[int]int, 3)
	for i := range counts {
		counts[i] = map[int]int{}
	}
	for i, x := range data {
		counts[mustP(m.Predict(x))][labels[i]]++
	}
	pure, total := 0, 0
	for _, cm := range counts {
		best := 0
		for _, n := range cm {
			total += n
			if n > best {
				best = n
			}
		}
		pure += best
	}
	if p := float64(pure) / float64(total); p < 0.9 {
		t.Fatalf("cluster purity %.3f < 0.9", p)
	}
}

func TestAutoKElbow(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	data, _ := segmentSet(r, 240, 4, 32, 0.02)
	cfg := quickCfg(32, 0) // auto-K
	cfg.ElbowRange = []int{2, 3, 4, 5, 6, 8}
	m, err := Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.SSECurve() == nil {
		t.Fatal("SSECurve should be recorded for auto-K")
	}
	if m.K() < 2 || m.K() > 8 {
		t.Fatalf("auto K = %d outside scanned range", m.K())
	}
}

func TestHistoryRecorded(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	data, _ := segmentSet(r, 100, 2, 24, 0.05)
	cfg := quickCfg(24, 2)
	m, err := Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.History()) != cfg.Epochs+cfg.JointEpochs {
		t.Fatalf("history length %d, want %d", len(m.History()), cfg.Epochs+cfg.JointEpochs)
	}
	if m.TrainedOn() != 100 {
		t.Fatalf("TrainedOn = %d", m.TrainedOn())
	}
	if m.SSECurve() != nil {
		t.Fatal("SSECurve should be nil for fixed K")
	}
	if m.FLOPsPerPredict() <= 0 {
		t.Fatal("FLOPsPerPredict must be positive")
	}
	if len(m.Centroids()) != 2 {
		t.Fatal("Centroids length mismatch")
	}
}

func TestPredictWrongWidthReturnsErrBadSegment(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	data, _ := segmentSet(r, 50, 2, 16, 0.05)
	m, err := Train(data, quickCfg(16, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Predict(make([]float64, 8)); !errors.Is(err, ErrBadSegment) {
		t.Fatalf("Predict on wrong width: err = %v, want ErrBadSegment", err)
	}
	// Items wider than the model are rejected by PredictPadded too.
	if _, err := m.PredictPadded(make([]float64, 99)); !errors.Is(err, ErrBadSegment) {
		t.Fatalf("PredictPadded on oversized item: err = %v, want ErrBadSegment", err)
	}
	if _, err := m.PredictBytesBatch([][]byte{make([]byte, 2), make([]byte, 99)}); !errors.Is(err, ErrBadSegment) {
		t.Fatalf("PredictBytesBatch with oversized item: err = %v, want ErrBadSegment", err)
	}
}

func TestPredictPaddedAcceptsNarrowItems(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	data, _ := segmentSet(r, 120, 2, 32, 0.05)
	m, err := Train(data, quickCfg(32, 2))
	if err != nil {
		t.Fatal(err)
	}
	c := mustP(m.PredictPadded(make([]float64, 20)))
	if c < 0 || c >= 2 {
		t.Fatalf("padded prediction %d out of range", c)
	}
	// Full-width items route through Predict unchanged.
	if got := mustP(m.PredictPadded(data[0])); got != mustP(m.Predict(data[0])) {
		t.Fatal("full-width PredictPadded disagrees with Predict")
	}
}

func TestPredictBytes(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	data, _ := segmentSet(r, 80, 2, 32, 0.05)
	m, err := Train(data, quickCfg(32, 2))
	if err != nil {
		t.Fatal(err)
	}
	b := []byte{0xff, 0x00, 0xff, 0x00}
	c := mustP(m.PredictBytes(b))
	if c2 := mustP(m.Predict(BytesToBits(b))); c2 != c {
		t.Fatalf("PredictBytes %d != Predict(bits) %d", c, c2)
	}
	if c3 := m.MustPredictBytes(b); c3 != c {
		t.Fatalf("MustPredictBytes %d != PredictBytes %d", c3, c)
	}
}

func TestBytesBitsRoundTrip(t *testing.T) {
	b := []byte{0xa5, 0x3c, 0x00, 0xff}
	bits := BytesToBits(b)
	if len(bits) != 32 {
		t.Fatalf("bits len = %d", len(bits))
	}
	back := BitsToBytes(bits)
	if bitvec.HammingBytes(b, back) != 0 {
		t.Fatalf("round trip mismatch: %x vs %x", b, back)
	}
}

func TestExplicitPaddingRespected(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	data, _ := segmentSet(r, 60, 2, 24, 0.05)
	cfg := quickCfg(24, 2)
	cfg.PadExplicit = true
	cfg.PadLocation = padding.Begin
	cfg.PadType = padding.Zero
	m, err := Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Padder().Loc != padding.Begin || m.Padder().Kind != padding.Zero {
		t.Fatalf("explicit padding overridden: %v/%v", m.Padder().Loc, m.Padder().Kind)
	}
	if got := m.Config(); got.PadType != padding.Zero {
		t.Fatal("config lost explicit pad type")
	}
}

func TestDefaultPaddingApplied(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	data, _ := segmentSet(r, 60, 2, 24, 0.05)
	m, err := Train(data, quickCfg(24, 2))
	if err != nil {
		t.Fatal(err)
	}
	if m.Padder().Loc != padding.End || m.Padder().Kind != padding.InputBased {
		t.Fatalf("default padding = %v/%v, want end/IB", m.Padder().Loc, m.Padder().Kind)
	}
}

func TestLearnedPaddingTrains(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	// Structured items so the LSTM has a learnable pattern.
	data := make([][]float64, 60)
	for i := range data {
		row := make([]float64, 96)
		for j := range row {
			row[j] = float64(j % 2)
		}
		data[i] = row
	}
	_ = r
	cfg := quickCfg(96, 2)
	cfg.PadExplicit = true
	cfg.PadType = padding.Learned
	cfg.PadLocation = padding.End
	cfg.LearnedPadWindow = 16
	cfg.LearnedPadPredict = 4
	cfg.LearnedPadEpochs = 10
	m, err := Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := mustP(m.PredictPadded(make([]float64, 40)))
	if c < 0 || c >= m.K() {
		t.Fatalf("learned-padded prediction %d out of range", c)
	}
}

func TestManagerSwap(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	data, _ := segmentSet(r, 80, 2, 24, 0.05)
	m, err := Train(data, quickCfg(24, 2))
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(m)
	if mgr.Current() != m {
		t.Fatal("Current should be the initial model")
	}
	m2, err := mgr.RetrainSync(data, quickCfg(24, 2))
	if err != nil {
		t.Fatal(err)
	}
	if mgr.Current() != m2 || mgr.Retrains() != 1 {
		t.Fatal("RetrainSync did not swap")
	}
}

func TestManagerAsyncRetrain(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	data, _ := segmentSet(r, 60, 2, 16, 0.05)
	m, err := Train(data, quickCfg(16, 2))
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(m)
	done := make(chan error, 1)
	ok := mgr.RetrainAsync(data, quickCfg(16, 2), func(_ *Model, err error) { done <- err })
	if !ok {
		t.Fatal("RetrainAsync rejected")
	}
	// A second concurrent request must be dropped (only if the first is
	// still running; either way the API must not block).
	mgr.RetrainAsync(data, quickCfg(16, 2), nil)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Quiesce joins every retrain goroutine — including the second request
	// above if it was accepted — so nothing outlives the test.
	mgr.Quiesce()
	if mgr.Retraining() {
		t.Fatal("retrain still in flight after Quiesce")
	}
	// Serving continued throughout; now the new model must be live.
	if mgr.Retrains() < 1 {
		t.Fatal("retrain did not complete")
	}
	if mgr.Current() == nil {
		t.Fatal("no live model")
	}
}

// TestConcurrentPredict verifies prediction is safe (and deterministic)
// under concurrency — the ClusteredAllocator calls Predict without any
// store-level lock. Run with -race to catch cache sharing regressions.
func TestConcurrentPredict(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	data, _ := segmentSet(r, 120, 3, 32, 0.05)
	m, err := Train(data, quickCfg(32, 3))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int, len(data))
	for i, x := range data {
		want[i] = mustP(m.Predict(x))
	}
	done := make(chan bool, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			ok := true
			for i := g; i < len(data); i += 2 {
				if mustP(m.Predict(data[i])) != want[i] {
					ok = false
				}
			}
			done <- ok
		}(g)
	}
	for g := 0; g < 8; g++ {
		if !<-done {
			t.Fatal("concurrent prediction diverged")
		}
	}
}

func TestPredictBytesBatchMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	data, _ := segmentSet(r, 90, 3, 32, 0.05)
	m, err := Train(data, quickCfg(32, 3))
	if err != nil {
		t.Fatal(err)
	}
	imgs := make([][]byte, len(data))
	for i, row := range data {
		imgs[i] = BitsToBytes(row)
	}
	batch, err := m.PredictBytesBatch(imgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(imgs) {
		t.Fatalf("batch len = %d", len(batch))
	}
	for i, img := range imgs {
		if got := mustP(m.PredictBytes(img)); got != batch[i] {
			t.Fatalf("batch[%d] = %d, sequential = %d", i, batch[i], got)
		}
	}
	if out, err := m.PredictBytesBatch(nil); err != nil || len(out) != 0 {
		t.Fatal("empty batch should be empty")
	}
	if out, err := m.PredictBytesBatch(imgs[:1]); err != nil || out[0] != mustP(m.PredictBytes(imgs[0])) {
		t.Fatal("single-item batch mismatch")
	}
}

// TestMemoryAwarePlacementBeatsArbitrary is the end-to-end property the
// whole system exists for: choosing the destination segment by predicted
// cluster yields fewer bit flips than an arbitrary destination.
func TestMemoryAwarePlacementBeatsArbitrary(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	segBits := 64
	// One draw so training data, free segments, and incoming writes all
	// share the same planted prototypes.
	all, _ := segmentSet(r, 500, 4, segBits, 0.03)
	data, incoming := all[:400], all[400:]
	m, err := Train(data[:300], quickCfg(segBits, 4))
	if err != nil {
		t.Fatal(err)
	}
	// Free segments: the remaining 100, grouped by predicted cluster.
	free := map[int][][]float64{}
	for _, seg := range data[300:] {
		c := mustP(m.Predict(seg))
		free[c] = append(free[c], seg)
	}
	aware, arbitrary := 0, 0
	arb := rand.New(rand.NewSource(13))
	pool := data[300:]
	for _, item := range incoming {
		c := mustP(m.Predict(item))
		if segs := free[c]; len(segs) > 0 {
			aware += bitvec.HammingFloats(segs[0], item)
		} else {
			aware += bitvec.HammingFloats(pool[arb.Intn(len(pool))], item)
		}
		arbitrary += bitvec.HammingFloats(pool[arb.Intn(len(pool))], item)
	}
	if float64(aware) > 0.7*float64(arbitrary) {
		t.Fatalf("memory-aware placement flips %d not well below arbitrary %d", aware, arbitrary)
	}
}

// TestTrainLeavesNoGoroutine checks that Train and PredictBytesBatch join
// every worker they start: the model is wide enough that training,
// encoding and the bulk prediction all fork when GOMAXPROCS allows.
func TestTrainLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	r := rand.New(rand.NewSource(12))
	data, _ := segmentSet(r, 96, 2, 256, 0.05)
	cfg := quickCfg(256, 2)
	cfg.Epochs, cfg.JointEpochs = 1, 1
	m, err := Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	imgs := make([][]byte, len(data))
	for i, row := range data {
		imgs[i] = BitsToBytes(row)
	}
	if _, err := m.PredictBytesBatch(imgs); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		// a worker's wg.Done precedes its exit by a moment
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Train, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
