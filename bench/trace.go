package main

import (
	"bufio"
	"fmt"
	"os"
)

// spanName identifies what a span timed. Layer spans are named after the
// package whose public function the benchmark called.
type spanName uint8

const (
	spanOp spanName = iota // one facade op, from its due time to its return
	spanFacadePut
	spanFacadeGet
	spanReplayPut // root of one replayed Algorithm 1
	spanReplayGet // root of one replayed read
	spanKVEncode  // kvstore's record encode, done bench-side
	spanKVStage   // kvstore's copy of the record over the segment image
	spanKVVerify  // kvstore's length + CRC check of a read record
	spanIndexGet
	spanIndexPut
	spanCorePredict     // record-sized input: pad + infer
	spanCorePredictFull // full segment image: the recycle call
	spanPaddingPad
	spanInferPredict
	spanDapGet
	spanDapAdd
	spanNvmPeek
	spanNvmWrite
	spanNvmRead
	spanTxnCommit
	spanCacheHit
	spanCacheMiss
	spanCacheFill
	spanCacheInvalidate
	spanCacheHotness
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"op", "facade.put", "facade.get", "replay.put", "replay.get",
	"kvstore.encode", "kvstore.stage", "kvstore.verify",
	"index.get", "index.put",
	"core.predict", "core.predict_full", "padding.pad", "infer.predict",
	"dap.get", "dap.add",
	"nvm.peek", "nvm.write", "nvm.read", "txn.commit",
	"hotcache.get_hit", "hotcache.get_miss", "hotcache.fill",
	"hotcache.invalidate", "hotcache.hotness",
}

// span is one timed interval: what, when, under which span, for which op.
// Spans of one request share op.
type span struct {
	start, end int64
	parent, op int32
	name       spanName
}

// trace keeps spans in memory; they are written out, if asked, when the
// run ends.
type trace struct {
	now   clock
	spans []span
}

func newTrace(now clock, capacity int) *trace {
	return &trace{now: now, spans: make([]span, 0, capacity)}
}

// add records a finished span and returns its index.
func (t *trace) add(name spanName, parent, op int32, start, end int64) int32 {
	t.spans = append(t.spans, span{start: start, end: end, parent: parent, op: op, name: name})
	return int32(len(t.spans) - 1)
}

// merge appends another recorder's spans, keeping their parent links.
func (t *trace) merge(o *trace) {
	base := int32(len(t.spans))
	for _, s := range o.spans {
		if s.parent >= 0 {
			s.parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// begin opens a span now; end closes it.
func (t *trace) begin(name spanName, parent, op int32) int32 {
	i := t.add(name, parent, op, 0, 0)
	t.spans[i].start = t.now()
	return i
}

func (t *trace) end(i int32) {
	t.spans[i].end = t.now()
}

// layerTime is one span name's totals over a trace.
type layerTime struct {
	calls int
	total int64 // Σ span durations
	self  int64 // Σ (span − the part its child spans cover)
}

// selfTimes folds a trace into per-name totals. A span's self time is its
// duration minus its direct children's durations (children never overlap:
// every recorder here is single-threaded per op).
func selfTimes(spans []span) [numSpanNames]layerTime {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	var out [numSpanNames]layerTime
	for i, s := range spans {
		lt := &out[s.name]
		lt.calls++
		lt.total += s.end - s.start
		lt.self += self[i]
	}
	return out
}

// writeSpans dumps a trace as one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, s := range spans {
		fmt.Fprintf(w, "{\"id\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"op\":%d}\n",
			i, spanNames[s.name], s.start, s.end, s.parent, s.op)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
