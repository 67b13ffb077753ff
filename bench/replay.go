package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"e2nvm/internal/bitvec"
	"e2nvm/internal/core"
	"e2nvm/internal/dap"
	"e2nvm/internal/hotcache"
	"e2nvm/internal/index"
	"e2nvm/internal/infer"
	"e2nvm/internal/kvstore"
	"e2nvm/internal/nvm"
	"e2nvm/internal/padding"
	"e2nvm/internal/txn"
)

// stack is one shard's worth of layer instances, built with the layers'
// public constructors, over which the benchmark replays the store's
// Algorithm 1 (Put) and read path call by call, with a span around every
// call. It mirrors kvstore.putLocked/placeLocked/recycleLocked and
// readValueLocked; kvstore.unattributed_frac and
// kvstore.replay_flips_ratio say how well it still does.
type stack struct {
	dev    *nvm.Device
	kern   *infer.Kernel
	pad    *padding.Padder
	inBits int
	pool   *dap.Pool
	tree   index.RBTree
	txm    *txn.Manager    // nil unless the workload is crash-safe
	cache  *hotcache.Cache // nil unless the workload caches
	seq    uint32
	tr     *trace

	rec, img, cur, packed, rd []byte
	h, mu                     []float64

	puts, gets, predicts int
	padBytes             int
	commits              int
	logFlips             int64 // flips the redo log cost beyond the home writes
	fallbacks, steered   int
	minFree              int // smallest per-cluster free list seen after a Put
}

// record layout of internal/kvstore/record.go, which keeps its codec
// unexported: flags, length, key, sequence, CRC-32C, value.
const (
	recLenOff = 1
	recKeyOff = 3
	recSeqOff = 11
	recCRCOff = 15
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func recordCRC(rec []byte) uint32 {
	crc := crc32.Checksum(rec[recLenOff:recCRCOff], crcTable)
	return crc32.Update(crc, crcTable, rec[kvstore.RecordOverhead:])
}

var errReplay = errors.New("bench: replay diverged from the store")

// newStack builds the layers over a device seeded with images (one
// shard's zone), predicting every data segment into the pool as
// kvstore.OpenWith does.
func newStack(model *core.Model, images [][]byte, sp spec, tr *trace) (*stack, error) {
	segSize := len(images[0])
	dev, err := newDevice(images, sp.emulate)
	if err != nil {
		return nil, err
	}
	kern := model.Kernel()
	pad := model.Padder()
	if kern == nil || !pad.CanPadBytes() {
		return nil, fmt.Errorf("bench: geometry has no byte-domain kernel to replay")
	}
	pool, err := dap.New(model.K())
	if err != nil {
		return nil, err
	}
	s := &stack{
		dev: dev, kern: kern, pad: pad, inBits: model.InputBits(), pool: pool, tr: tr,
		rec: make([]byte, segSize), img: make([]byte, segSize), cur: make([]byte, segSize),
		rd: make([]byte, segSize),
		h:  make([]float64, kern.HiddenDim()), mu: make([]float64, kern.LatentDim()),
	}
	dataSegs := len(images)
	if sp.rf > 1 {
		s.txm, dataSegs, err = txn.NewManager(dev, kvstore.LogSlots, kvstore.LogMaxEntries)
		if err != nil {
			return nil, err
		}
		if err := s.txm.Format(); err != nil {
			return nil, err
		}
	}
	if sp.cache {
		s.cache, err = hotcache.New(hotcache.Config{MaxBytes: sp.cacheBytes})
		if err != nil {
			return nil, err
		}
	}
	for a := 0; a < dataSegs; a++ {
		s.poolAdd(kern.Predict(images[a], s.h, s.mu), a)
	}
	s.minFree = len(images)
	return s, nil
}

func (s *stack) poolAdd(c, addr int) {
	if s.cache != nil {
		s.pool.AddWear(c, addr, s.dev.SegmentWriteCount(addr))
		return
	}
	s.pool.Add(c, addr)
}

// writeSegment persists one image: a plain device write, or a redo-log
// transaction when crash-safe.
func (s *stack) writeSegment(parent, opID int32, addr int, img []byte) error {
	if s.txm == nil {
		sp := s.tr.begin(spanNvmWrite, parent, opID)
		_, err := s.dev.Write(addr, img)
		s.tr.end(sp)
		return err
	}
	// what the home write alone would flip, so the rest is the log's
	if err := s.dev.PeekInto(addr, s.cur); err != nil {
		return err
	}
	home := bitvec.HammingBytes(s.cur, img)
	before := s.dev.Stats().BitsFlipped
	sp := s.tr.begin(spanTxnCommit, parent, opID)
	tx := s.txm.Begin()
	err := tx.Write(addr, img)
	if err == nil {
		err = tx.Commit()
	}
	s.tr.end(sp)
	s.commits++
	s.logFlips += int64(s.dev.Stats().BitsFlipped-before) - int64(home)
	return err
}

func (s *stack) peek(parent, opID int32, addr int) error {
	sp := s.tr.begin(spanNvmPeek, parent, opID)
	err := s.dev.PeekInto(addr, s.img)
	s.tr.end(sp)
	return err
}

// put replays Algorithm 1 for one record.
func (s *stack) put(opID int32, key uint64, value []byte) error {
	tr := s.tr
	root := tr.begin(spanReplayPut, -1, opID)
	defer tr.end(root)

	sp := tr.begin(spanKVEncode, root, opID)
	rec := s.rec[:kvstore.RecordOverhead+len(value)]
	rec[0] = 1
	binary.LittleEndian.PutUint16(rec[recLenOff:], uint16(len(value)))
	binary.LittleEndian.PutUint64(rec[recKeyOff:], key)
	binary.LittleEndian.PutUint32(rec[recSeqOff:], s.seq)
	copy(rec[kvstore.RecordOverhead:], value)
	binary.LittleEndian.PutUint32(rec[recCRCOff:], recordCRC(rec))
	s.seq++
	tr.end(sp)

	sp = tr.begin(spanIndexGet, root, opID)
	old, had := s.tree.Get(key)
	tr.end(sp)

	// core.PredictBytes on a record-sized input: pad, then infer
	pr := tr.begin(spanCorePredict, root, opID)
	sp = tr.begin(spanPaddingPad, pr, opID)
	packed, err := s.pad.PadBytesTo(s.packed, rec, s.inBits)
	tr.end(sp)
	if err != nil {
		return err
	}
	s.packed = packed
	sp = tr.begin(spanInferPredict, pr, opID)
	cluster := s.kern.Predict(packed, s.h, s.mu)
	tr.end(sp)
	tr.end(pr)
	s.predicts++
	s.padBytes += len(packed) - len(rec)

	temp := dap.TempNone
	if s.cache != nil {
		sp = tr.begin(spanCacheHotness, root, opID)
		temp = tempOf(s.cache.Hotness(key))
		tr.end(sp)
	}
	sp = tr.begin(spanDapGet, root, opID)
	addr, servedBy, steered, ok := s.pool.GetFor(cluster, temp)
	tr.end(sp)
	if !ok {
		return fmt.Errorf("%w: pool empty", errReplay)
	}
	if steered {
		s.steered++
	} else if servedBy != cluster {
		s.fallbacks++
	}

	if err := s.peek(root, opID, addr); err != nil {
		return err
	}
	sp = tr.begin(spanKVStage, root, opID)
	copy(s.img, rec)
	tr.end(sp)
	if err := s.writeSegment(root, opID, addr, s.img); err != nil {
		return err
	}
	sp = tr.begin(spanIndexPut, root, opID)
	s.tree.Put(key, int64(addr))
	tr.end(sp)

	if had {
		// invalidate the superseded record: a one-bit write
		if err := s.peek(root, opID, int(old)); err != nil {
			return err
		}
		if s.img[0]&1 != 0 {
			s.img[0] &^= 1
			if err := s.writeSegment(root, opID, int(old), s.img); err != nil {
				return err
			}
		}
		// recycle it under the cluster of its content: the second,
		// full-width inference
		if err := s.peek(root, opID, int(old)); err != nil {
			return err
		}
		pr = tr.begin(spanCorePredictFull, root, opID)
		sp = tr.begin(spanInferPredict, pr, opID)
		c2 := s.kern.Predict(s.img, s.h, s.mu)
		tr.end(sp)
		tr.end(pr)
		s.predicts++
		sp = tr.begin(spanDapAdd, root, opID)
		s.poolAdd(c2, int(old))
		tr.end(sp)
	}
	if s.cache != nil {
		// the facade's invalidate-before-ack
		sp = tr.begin(spanCacheInvalidate, root, opID)
		s.cache.Invalidate(key)
		tr.end(sp)
	}
	s.puts++
	return nil
}

// noteFree samples the smallest per-cluster free list (outside any span:
// it is bookkeeping, not store work).
func (s *stack) noteFree() {
	for _, n := range s.pool.ClusterSizes() {
		if n < s.minFree {
			s.minFree = n
		}
	}
}

// get replays the read path: cache probe, index lookup, device read,
// record check, cache fill.
func (s *stack) get(opID int32, key uint64, dst []byte) ([]byte, bool, error) {
	tr := s.tr
	root := tr.begin(spanReplayGet, -1, opID)
	defer tr.end(root)
	s.gets++

	var token uint64
	if s.cache != nil {
		t0 := tr.now()
		v, ok := s.cache.GetInto(key, dst)
		t1 := tr.now()
		name := spanCacheMiss
		if ok {
			name = spanCacheHit
		}
		tr.add(name, root, opID, t0, t1)
		if ok {
			return v, true, nil
		}
		token = s.cache.BeginFill(key)
	}
	sp := tr.begin(spanIndexGet, root, opID)
	addr, ok := s.tree.Get(key)
	tr.end(sp)
	if !ok {
		return dst[:0], false, nil
	}
	sp = tr.begin(spanNvmRead, root, opID)
	err := s.dev.ReadInto(int(addr), s.rd)
	tr.end(sp)
	if err != nil {
		return dst[:0], false, err
	}
	sp = tr.begin(spanKVVerify, root, opID)
	n := int(binary.LittleEndian.Uint16(s.rd[recLenOff:]))
	if s.rd[0]&1 == 0 || n > len(s.rd)-kvstore.RecordOverhead {
		tr.end(sp)
		return dst[:0], false, fmt.Errorf("%w: bad record at segment %d", errReplay, addr)
	}
	rec := s.rd[:kvstore.RecordOverhead+n]
	if binary.LittleEndian.Uint32(rec[recCRCOff:]) != recordCRC(rec) {
		tr.end(sp)
		return dst[:0], false, fmt.Errorf("%w: CRC mismatch at segment %d", errReplay, addr)
	}
	dst = append(dst[:0], rec[kvstore.RecordOverhead:]...)
	tr.end(sp)
	if s.cache != nil {
		sp = tr.begin(spanCacheFill, root, opID)
		s.cache.CompleteFill(key, dst, token)
		tr.end(sp)
	}
	return dst, true, nil
}
