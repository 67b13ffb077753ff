package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{19, 0.50, 10, false}, // 9 beyond the median
		{20, 0.50, 10, true},  // 10 beyond
		{999, 0.99, 990, false},
		{1000, 0.99, 990, true},
		{1024, 0.99, 1014, true}, // the 1024 per-key latencies of a read-back sweep just qualify
		{0, 0.5, 0, false},
	} {
		v, ok := percentile(seq(tc.n), tc.q)
		if v != tc.want || ok != tc.ok {
			t.Errorf("percentile(1..%d, %g) = %g, %v; want %g, %v", tc.n, tc.q, v, ok, tc.want, tc.ok)
		}
	}
}

// Reference values from Python: statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 20}, 7.5, 15, 22.5}, // positions outside the data extrapolate
		{[]float64{5, 1, 9, 3, 7}, 2, 5, 8},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %g %g %g; want %g %g %g", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0}, {[]float64{7}, 7}, {[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %g, want %g", tc.xs, got, tc.want)
		}
	}
}

// The read-back sample is one latency per key, the median over the passes:
// a pass an interrupt landed in does not move it.
func TestReadBackTakesEachKeysMedianOverPasses(t *testing.T) {
	lat := [][]float64{{100, 200, 300}, {110, 9000, 290}, {90, 210, 310}}
	got := readBack(lat)
	want := []float64{100, 210, 300}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("readBack = %v, want %v", got, want)
		}
	}
	if readBack(nil) != nil {
		t.Error("readBack of no passes is not empty")
	}
}

func TestSummarize(t *testing.T) {
	s := summarize(seq(10))
	if s.Value != 5.5 || s.IQR() != 5.5 || s.Min != 1 || s.Max != 10 || s.N != 10 {
		t.Errorf("summarize(1..10) = %+v", s)
	}
	if s := summarize([]float64{7}); s.Value != 7 || s.IQR() != 0 || s.N != 1 {
		t.Errorf("summarize of one value = %+v", s)
	}
	if s := summarize(nil); s.N != 0 {
		t.Errorf("summarize(nil) = %+v", s)
	}
}

func TestSlicePercentileUsesTheFinestSlicingThatHasTheSamples(t *testing.T) {
	mk := func(slices, each int) [][]float64 {
		out := make([][]float64, slices)
		for i := range out {
			out[i] = seq(each)
		}
		return out
	}
	// 100 slices of 1000: every slice supports its own p99
	s, ok := slicePercentile(mk(100, 1000), 0.99, 5)
	if !ok || s.N != 100 || s.Value != 990 || s.IQR() != 0 {
		t.Errorf("fat slices: %+v, %v", s, ok)
	}
	// 100 slices of 250 do not, but runs of 5 (1250 samples) do
	s, ok = slicePercentile(mk(100, 250), 0.99, 5)
	if !ok || s.N != 20 {
		t.Errorf("thin slices: %+v, %v", s, ok)
	}
	// 100 slices of 20: only the pool of 2000 does, and it has no spread
	s, ok = slicePercentile(mk(100, 20), 0.99, 5)
	if !ok || s.N != 1 || s.IQR() != 0 {
		t.Errorf("very thin slices: %+v, %v", s, ok)
	}
	// and 20 samples in all support nothing: absent, not invented
	if _, ok := slicePercentile(mk(2, 10), 0.99, 1); ok {
		t.Error("p99 reported from 20 samples")
	}
	// the same 100 × 20 samples do support a median per slice
	if s, ok := slicePercentile(mk(100, 20), 0.5, 5); !ok || s.N != 100 {
		t.Errorf("p50 of thin slices: %+v, %v", s, ok)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	// root [0,100] > predict [10,70] > {pad [10,20], infer [25,65]}; write [75,95]
	spans := []span{
		{name: spanReplayPut, parent: -1, start: 0, end: 100},
		{name: spanCorePredict, parent: 0, start: 10, end: 70},
		{name: spanPaddingPad, parent: 1, start: 10, end: 20},
		{name: spanInferPredict, parent: 1, start: 25, end: 65},
		{name: spanNvmWrite, parent: 0, start: 75, end: 95},
	}
	lt := selfTimes(spans)
	for _, tc := range []struct {
		name        spanName
		total, self int64
	}{
		{spanReplayPut, 100, 20}, // 100 − 60 − 20
		{spanCorePredict, 60, 10},
		{spanPaddingPad, 10, 10},
		{spanInferPredict, 40, 40},
		{spanNvmWrite, 20, 20},
	} {
		got := lt[tc.name]
		if got.calls != 1 || got.total != tc.total || got.self != tc.self {
			t.Errorf("%s: %+v; want total %d self %d", spanNames[tc.name], got, tc.total, tc.self)
		}
	}
	var sum int64
	for _, l := range lt {
		sum += l.self
	}
	if sum != 100 {
		t.Errorf("self times sum to %d, want the root's 100", sum)
	}
}

func TestMergeKeepsParentLinks(t *testing.T) {
	a, b := newTrace(nil, 4), newTrace(nil, 4)
	a.add(spanFacadePut, a.add(spanOp, -1, 0, 0, 10), 0, 2, 9)
	b.add(spanFacadeGet, b.add(spanOp, -1, 7, 20, 30), 7, 21, 29)
	a.merge(b)
	if len(a.spans) != 4 || a.spans[2].parent != -1 || a.spans[3].parent != 2 || a.spans[3].op != 7 {
		t.Errorf("merged spans %+v", a.spans)
	}
}

func TestJudge(t *testing.T) {
	mk := func(v, iqr float64) Summary {
		return Summary{Value: v, Q1: v - iqr/2, Q3: v + iqr/2, N: 20}
	}
	a := mk(100, 2)
	for _, tc := range []struct {
		b       Summary
		better  string
		bound   float64
		verdict string
		worse   float64
	}{
		{mk(105, 2), "lower", 0.10, verdictOK, 0.05},
		{mk(115, 2), "lower", 0.10, verdictRegressed, 0.15},
		{mk(85, 2), "lower", 0.10, verdictOK, -0.15},
		{mk(85, 2), "higher", 0.10, verdictRegressed, 0.15},
		{mk(115, 30), "lower", 0.10, verdictUnresolved, 0.15},
	} {
		worse, _, v := judge(a, tc.b, tc.better, tc.bound)
		if v != tc.verdict || math.Abs(worse-tc.worse) > 1e-12 {
			t.Errorf("judge(100 → %g, %s, %g) = %+.3f %s; want %+.3f %s",
				tc.b.Value, tc.better, tc.bound, worse, v, tc.worse, tc.verdict)
		}
	}
}
