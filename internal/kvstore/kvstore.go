// Package kvstore implements the persistent key/value store the paper
// builds on E2-NVM (§3.3, Figure 3): an RB-tree index in DRAM maps keys to
// NVM segments; incoming writes are steered by the E2-NVM model through the
// cluster-to-memory dynamic address pool; deletes reset a flag bit and
// recycle the address back to the pool under its (re-predicted) cluster.
//
// The package also exports ClusteredAllocator, E2-NVM's implementation of
// index.Allocator: the same predict-then-pool rule over its own address
// pool and any Predictor (core.Model, a PNW model, ...). Existing NVM data
// structures (B+-Tree, FP-Tree, Path Hashing, WiscKey, NoveLSM) are
// "plugged into" E2-NVM through it, exactly as in the paper's Figure 12,
// and the experiments place through it. The store and the allocator fill
// their pools through one function, fillPool.
package kvstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"e2nvm/internal/core"
	"e2nvm/internal/dap"
	"e2nvm/internal/index"
	"e2nvm/internal/nvm"
	"e2nvm/internal/padding"
	"e2nvm/internal/txn"
)

// Placement selects the write-placement policy.
type Placement int

// Placement policies.
const (
	// PlaceE2NVM steers writes to content-similar free segments via the
	// model (the paper's scheme).
	PlaceE2NVM Placement = iota
	// PlaceArbitrary takes any free segment for new keys and overwrites
	// in place on update — what the paper calls "prior methods pick the
	// memory location arbitrarily".
	PlaceArbitrary
)

// String returns the policy name.
func (p Placement) String() string {
	if p == PlaceArbitrary {
		return "arbitrary"
	}
	return "e2nvm"
}

// The segment record layout (flags, length, key, sequence, CRC, value)
// lives in record.go. Records are self-describing — the key is in the
// segment — so a store can be rebuilt from NVM alone after a crash (see
// Recover), and CRC-protected, so cell-level corruption is detected rather
// than served.

// ErrValueTooLarge is returned when a value exceeds the segment payload.
var ErrValueTooLarge = errors.New("kvstore: value exceeds segment payload")

// ErrNoSpace is returned when no free segment remains.
var ErrNoSpace = errors.New("kvstore: no free segments")

// ErrDegraded is returned instead of a bare ErrNoSpace when allocation
// fails after retirement has consumed at least Options.DegradeThreshold of
// the data zone: the device is wearing out, not merely full. It wraps
// ErrNoSpace, so existing errors.Is(err, ErrNoSpace) checks still match.
var ErrDegraded = fmt.Errorf("kvstore: capacity degraded by worn-out segments: %w", ErrNoSpace)

// ErrCorrupt reports a stored record that cannot be trusted (an invalidated
// flag where a live record was expected, an out-of-range length, or a CRC
// mismatch). Callers detect it with errors.Is.
var ErrCorrupt = errors.New("kvstore: corrupt record")

// ErrWornOut re-exports nvm.ErrWornOut: a write failed because the target
// segment's cells no longer program. Puts handle it internally (retire and
// retry elsewhere); it escapes only when retries are exhausted or
// retirement is disabled.
var ErrWornOut = nvm.ErrWornOut

// ErrBadOptions reports invalid Options passed to Open/OpenWith/Recover.
var ErrBadOptions = errors.New("kvstore: invalid options")

// ErrBadSegment reports a geometry mismatch between the model and the
// device (wrong InputBits for the segment size, item wider than a
// segment). It re-exports core.ErrBadSegment so store callers need only
// this package for errors.Is checks.
var ErrBadSegment = core.ErrBadSegment

// ErrOutOfRange reports a segment address outside the device (or inside
// the reserved redo-log zone). It aliases nvm.ErrBadAddress, so device and
// transaction errors wrapped anywhere below the store satisfy
// errors.Is(err, ErrOutOfRange).
var ErrOutOfRange = nvm.ErrBadAddress

// Log geometry used by crash-safe stores: every record write is one
// single-entry transaction, and two slots let a commit restage around one
// worn slot without stalling. Exported so replication followers can build
// a txn.Manager with the identical layout over their own devices — the
// shipped home addresses only make sense if both logs reserve the same
// tail segments.
const (
	LogSlots      = 2
	LogMaxEntries = 1
)

// Options configures Open.
type Options struct {
	// Placement selects the placement policy (default PlaceE2NVM).
	Placement Placement
	// LowWater is the per-cluster free-list threshold that marks the
	// model as due for retraining (default: NumSegments/(K*10), min 2).
	LowWater int
	// AutoRetrain triggers background retraining automatically when a
	// cluster runs low (default false: callers drive retraining, as the
	// experiments do).
	AutoRetrain bool
	// IndexFraction bounds the portion of the device indexed into the
	// address pool at open (0 < f ≤ 1; 0 means 1). The paper's §4.1.4
	// incremental approach: start small, call IndexMore as demand grows.
	IndexFraction float64
	// CrashSafe routes every segment write through a redo-log transaction
	// (the role PMDK transactions play in the paper), making each write
	// atomic even across torn cache lines. Costs log space at the top of
	// the device plus the logging write amplification.
	CrashSafe bool
	// PutRetries bounds how many alternate free segments one Put will try
	// when writes keep landing on worn-out segments (default 8).
	PutRetries int
	// DisableRetirement turns off the detect-retire-retry machinery: a
	// worn write fails the operation directly and the segment stays in
	// circulation. This is the baseline the fault sweep compares against.
	DisableRetirement bool
	// DegradeThreshold is the fraction of data segments that must be
	// retired before allocation failures escalate from ErrNoSpace to
	// ErrDegraded (default 0.1).
	DegradeThreshold float64
	// KeyTemp, when non-nil, classifies each key's access temperature at
	// placement time: hot keys are steered to the least-worn segment
	// cluster and cold keys to the most-worn one (dap.Pool.GetFor). The
	// pool then tracks per-cluster wear on every recycle. Nil keeps the
	// pure content-similarity placement with zero wear bookkeeping.
	KeyTemp func(key uint64) dap.Temp
}

// Stats reports store activity.
type Stats struct {
	Puts, Gets, Deletes, Scans uint64
	// Fallbacks counts placements served by a different cluster than
	// predicted because the predicted cluster's free list was empty.
	Fallbacks uint64
	// Steered counts placements the hot/cold temperature policy moved off
	// the predicted cluster (Options.KeyTemp; distinct from Fallbacks).
	Steered uint64
	// Retrains counts completed model retrains.
	Retrains int
	// WornWrites counts segment writes that failed on worn-out cells.
	WornWrites uint64
	// Retired counts segments permanently removed from circulation.
	Retired uint64
	// Relocations counts live records Scrub moved off failing segments.
	Relocations uint64
}

// Add folds o into s; it is the one place multi-store aggregates are
// computed.
func (s *Stats) Add(o Stats) {
	s.Puts += o.Puts
	s.Gets += o.Gets
	s.Deletes += o.Deletes
	s.Scans += o.Scans
	s.Fallbacks += o.Fallbacks
	s.Steered += o.Steered
	s.Retrains += o.Retrains
	s.WornWrites += o.WornWrites
	s.Retired += o.Retired
	s.Relocations += o.Relocations
}

// Store is the E2-NVM key/value store.
type Store struct {
	dev  *nvm.Device
	mgr  *core.Manager
	pool *dap.Pool
	opts Options

	txnMgr   *txn.Manager // non-nil in crash-safe mode; set once at open
	dataSegs int          // segments usable for data (device minus txn log)

	// densityBits caches the data zone's sampled 1-density
	// (math.Float64bits-encoded) for MemoryBased padding. The padding
	// callback reads it under the model's lock — possibly from
	// PredictBytesBatch workers — concurrently with store writes, hence
	// atomic rather than s.mu.
	densityBits atomic.Uint64
	mbPadding   bool // MemoryBased density callback installed (set once at open)

	mu      sync.Mutex
	tree    *index.RBTree // key → segment address
	stats   Stats
	indexed int    // segments [0, indexed) are under DAP management
	seq     uint32 // next record sequence number

	// retrainBase is the manager's completed-retrain count at the last
	// ResetStats, so Stats.Retrains reports retrains since the reset.
	retrainBase int

	// poolK is the pool's live cluster count. A retrain swaps the model in
	// before s.mu is taken to rebuild the pool, so for that window the
	// model may predict clusters the pool does not have yet; predictions
	// are clamped to poolK (see clampClusterLocked).
	poolK int

	// Serving-path scratch, reused under mu so steady-state operations do
	// not allocate.
	encBuf           []byte // encode() record staging
	segBuf           []byte // segment staging for Put/invalidate/recycle/density
	getBuf           []byte // segment staging for reads
	putsSinceDensity int    // Puts since the density cache was refreshed

	scrubCursor int    // next segment Scrub will examine
	scrubBuf    []byte // Scrub's own staging (putLocked reuses segBuf)
}

// densityRefreshEvery is the Put interval at which the MemoryBased-padding
// density cache is re-sampled from the device.
const densityRefreshEvery = 256

// Open trains an E2-NVM model on the device's current segment contents
// (the "old data" in the paper's experiments) and builds the dynamic
// address pool over all segments not referenced by any key.
func Open(dev *nvm.Device, modelCfg core.Config, opts Options) (*Store, error) {
	segBits := dev.SegmentSize() * 8
	if modelCfg.InputBits == 0 {
		modelCfg.InputBits = segBits
	}
	if modelCfg.InputBits != segBits {
		return nil, fmt.Errorf("kvstore: model InputBits %d != segment bits %d: %w", modelCfg.InputBits, segBits, ErrBadSegment)
	}
	data, err := segmentImages(dev)
	if err != nil {
		return nil, err
	}
	model, err := core.Train(data, modelCfg)
	if err != nil {
		return nil, err
	}
	return OpenWith(dev, model, opts)
}

// OpenWith builds a store around an already-trained model (e.g. one shared
// across several experiment runs over identically seeded devices). In
// crash-safe mode the redo log is formatted: use RecoverWith to preserve
// and replay a previous incarnation's pending transactions.
func OpenWith(dev *nvm.Device, model *core.Model, opts Options) (*Store, error) {
	return openWith(dev, model, opts, false)
}

func openWith(dev *nvm.Device, model *core.Model, opts Options, recovering bool) (*Store, error) {
	if model.InputBits() != dev.SegmentSize()*8 {
		return nil, fmt.Errorf("kvstore: model InputBits %d != segment bits %d: %w", model.InputBits(), dev.SegmentSize()*8, ErrBadSegment)
	}
	if opts.LowWater <= 0 {
		opts.LowWater = dev.NumSegments() / (model.K() * 10)
		if opts.LowWater < 2 {
			opts.LowWater = 2
		}
	}
	pool, err := dap.New(model.K(), dap.WithLowWater(opts.LowWater))
	if err != nil {
		return nil, err
	}
	if opts.IndexFraction < 0 || opts.IndexFraction > 1 {
		return nil, fmt.Errorf("kvstore: IndexFraction %v out of (0,1]: %w", opts.IndexFraction, ErrBadOptions)
	}
	if opts.PutRetries < 0 {
		return nil, fmt.Errorf("kvstore: PutRetries %d must not be negative: %w", opts.PutRetries, ErrBadOptions)
	}
	if opts.PutRetries == 0 {
		opts.PutRetries = 8
	}
	if opts.DegradeThreshold < 0 || opts.DegradeThreshold > 1 {
		return nil, fmt.Errorf("kvstore: DegradeThreshold %v out of [0,1]: %w", opts.DegradeThreshold, ErrBadOptions)
	}
	if opts.DegradeThreshold == 0 {
		opts.DegradeThreshold = 0.1
	}
	s := &Store{
		dev:      dev,
		mgr:      core.NewManager(model),
		pool:     pool,
		opts:     opts,
		tree:     &index.RBTree{},
		dataSegs: dev.NumSegments(),
		poolK:    model.K(),
	}
	if opts.CrashSafe {
		mgr, dataSegs, err := txn.NewManager(dev, LogSlots, LogMaxEntries)
		if err != nil {
			return nil, err
		}
		if recovering {
			if _, _, err := mgr.Recover(); err != nil {
				return nil, err
			}
		} else if err := mgr.Format(); err != nil {
			return nil, err
		}
		s.txnMgr = mgr
		s.dataSegs = dataSegs
	}
	// Populate the pool: free segments are assigned to the cluster their
	// current content predicts (the initialization phase of §3.3.1),
	// covering IndexFraction of the device; the rest joins via IndexMore.
	// Recovery pools the segments its record scan finds free instead.
	if !recovering {
		limit := s.dataSegs
		if opts.IndexFraction > 0 {
			limit = int(opts.IndexFraction * float64(limit))
			if limit < 1 {
				limit = 1
			}
		}
		s.mu.Lock()
		_, err := s.indexMoreLocked(limit)
		s.mu.Unlock()
		if err != nil {
			return nil, err
		}
	}
	// Memory-based padding draws its bit density from the memory locations
	// incoming items will replace. The density is sampled into an atomic
	// cache (refreshed every densityRefreshEvery Puts) rather than walking
	// the device on every prediction: the callback runs under the model's
	// lock inside the serving path.
	if p := model.Padder(); p != nil && p.Kind == padding.MemoryBased {
		s.mu.Lock()
		s.refreshDensityLocked()
		s.mu.Unlock()
		s.mbPadding = true
		p.SetMemoryDensity(s.cachedDensity)
	}
	return s, nil
}

// cachedDensity returns the last sampled data-zone 1-density (the MB
// padding source).
func (s *Store) cachedDensity() float64 {
	return math.Float64frombits(s.densityBits.Load())
}

// refreshDensityLocked re-samples the 1-density of the data zone from a
// fixed sample of segments into the atomic cache. Callers hold s.mu.
func (s *Store) refreshDensityLocked() {
	const samples = 16
	buf := s.segScratchLocked()
	ones, bits := 0, 0
	step := s.dataSegs/samples + 1
	for addr := 0; addr < s.dataSegs; addr += step {
		if err := s.dev.PeekInto(addr, buf); err != nil {
			continue
		}
		for _, b := range buf {
			bits += 8
			ones += popcount8(b)
		}
	}
	d := 0.5
	if bits > 0 {
		d = float64(ones) / float64(bits)
	}
	s.densityBits.Store(math.Float64bits(d))
}

func popcount8(b byte) int {
	n := 0
	for ; b != 0; b &= b - 1 {
		n++
	}
	return n
}

// indexMoreLocked pools up to n segments past the indexed watermark under
// the live model and advances the watermark. The range is claimed and
// filled in one critical section, so concurrent IndexMore calls index
// disjoint ranges and a retrain cannot reset the pool between the
// prediction and the add. A prediction that fails (impossible for raw
// full-width segments in practice) skips only its own slot and the
// watermark still advances, so a retry cannot double-add the successes;
// a range that pooled nothing stays unclaimed. Callers hold s.mu.
func (s *Store) indexMoreLocked(n int) (int, error) {
	lo, hi := s.indexed, s.indexed+n
	if hi > s.dataSegs {
		hi = s.dataSegs
	}
	addrs := make([]int, 0, hi-lo)
	for addr := lo; addr < hi; addr++ {
		addrs = append(addrs, addr)
	}
	added, err := fillPool(s.mgr.Current(), s.dev, addrs, func(c, addr int) {
		s.poolAdd(s.clampClusterLocked(c), addr)
	})
	if added == 0 && err != nil {
		return 0, err
	}
	s.indexed = hi
	return added, err
}

// Indexed returns the number of device segments currently under DAP
// management.
func (s *Store) Indexed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.indexed
}

// IndexMore incrementally indexes up to n further segments into the pool
// (the paper's dynamic incremental approach), returning how many were
// added.
func (s *Store) IndexMore(n int) (int, error) {
	if n <= 0 {
		return 0, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.indexMoreLocked(n)
}

func segmentImages(dev *nvm.Device) ([][]float64, error) {
	data := make([][]float64, dev.NumSegments())
	for addr := 0; addr < dev.NumSegments(); addr++ {
		img, err := dev.Peek(addr)
		if err != nil {
			return nil, err
		}
		data[addr] = core.BytesToBits(img)
	}
	return data, nil
}

// Serving returns s: a plain store is always its own serving store. It
// makes *Store satisfy shard.Shard next to replica groups, whose serving
// store changes under failover.
func (s *Store) Serving() *Store { return s }

// Device returns the underlying NVM device (for experiment accounting).
func (s *Store) Device() *nvm.Device { return s.dev }

// TxnManager returns the redo-log manager in crash-safe mode (nil
// otherwise). Exposed for crash-injection tests and experiments.
func (s *Store) TxnManager() *txn.Manager { return s.txnMgr }

// Model returns the live E2-NVM model.
func (s *Store) Model() *core.Model { return s.mgr.Current() }

// Pool returns the dynamic address pool.
func (s *Store) Pool() *dap.Pool { return s.pool }

// MaxValue returns the largest storable value in bytes.
func (s *Store) MaxValue() int { return s.dev.SegmentSize() - valueHeader }

// encode serializes a record — header (flags, length, key, sequence, CRC)
// plus the value — into the store's record scratch, stamping the next
// store-wide sequence number. The result aliases s.encBuf and is valid
// until the next encode; callers hold s.mu.
func (s *Store) encode(key uint64, value []byte) []byte {
	n := valueHeader + len(value)
	if cap(s.encBuf) < n {
		s.encBuf = make([]byte, n) // lint:allow hotpathalloc — record scratch grows once to the largest value seen
	}
	buf := s.encBuf[:n]
	encodeRecord(buf, key, s.seq, value)
	s.seq++
	return buf
}

// segScratchLocked returns the segment-size staging buffer. Callers hold
// s.mu; the buffer is valid until the next call that uses it.
func (s *Store) segScratchLocked() []byte {
	if cap(s.segBuf) < s.dev.SegmentSize() {
		s.segBuf = make([]byte, s.dev.SegmentSize()) // lint:allow hotpathalloc — sized once to the segment size
	}
	return s.segBuf[:s.dev.SegmentSize()]
}

// Put implements the paper's Algorithm 1: predict the cluster of the
// incoming value — padded with the configured strategy when it is narrower
// than a segment (§4) — take the first free address of that cluster, write
// only the record's bits (padded bits are never stored; the rest of the
// segment keeps its old content), and update the index. Updates free the
// key's previous segment back into the pool.
//
// The path is hardened against cell wear-out: the write is verified
// (WriteResult.FaultyBits / ErrWornOut), a worn target is retired and the
// record retried on a different free segment (bounded by
// Options.PutRetries), and the new record is persisted before the old one
// is invalidated — so a crash or a worn old segment leaves at worst two
// valid records whose sequence numbers recovery can order.
//
// lint:hotpath
func (s *Store) Put(key uint64, value []byte) error {
	if len(value) > s.MaxValue() {
		return fmt.Errorf("%w: %d > %d", ErrValueTooLarge, len(value), s.MaxValue())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.putLocked(key, value); err != nil {
		return err
	}
	s.afterPutsLocked(1)
	return nil
}

// afterPutsLocked is the housekeeping both write entry points (Put,
// PutIfAbsent) run once per call after placing n records: count them, advance the MemoryBased-padding density refresh, and launch a
// background retrain when a cluster has run low. Callers hold s.mu.
func (s *Store) afterPutsLocked(n int) {
	s.stats.Puts += uint64(n)
	if s.mbPadding {
		if s.putsSinceDensity += n; s.putsSinceDensity >= densityRefreshEvery {
			s.putsSinceDensity = 0
			s.refreshDensityLocked()
		}
	}
	if s.opts.AutoRetrain && s.pool.NeedsRetrain() {
		s.retrainAsyncLocked() // lint:allow hotpathalloc — retraining is the deliberate slow path (§4.1.4)
	}
}

// PutIfAbsent writes the record only when no live record for key exists,
// reporting whether it wrote. The existence check and the write happen
// under one lock acquisition, which is what live migration needs for
// duplicate safety: a migrator copying a stale source record can never
// clobber a newer value a concurrent client already wrote to this store.
func (s *Store) PutIfAbsent(key uint64, value []byte) (bool, error) {
	if len(value) > s.MaxValue() {
		return false, fmt.Errorf("%w: %d > %d", ErrValueTooLarge, len(value), s.MaxValue())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tree.Get(key); ok {
		return false, nil
	}
	if err := s.putLocked(key, value); err != nil {
		return false, err
	}
	s.afterPutsLocked(1)
	return true, nil
}

// putLocked places and persists one record, retiring and retrying around
// worn-out segments. Callers hold s.mu; Scrub reuses it to relocate
// records off failing segments.
func (s *Store) putLocked(key uint64, value []byte) error {
	record := s.encode(key, value)

	oldAddr := -1
	if old, ok := s.tree.Get(key); ok {
		oldAddr = int(old)
	}
	if s.opts.Placement == PlaceArbitrary {
		return s.putArbitraryLocked(key, record, oldAddr)
	}

	cluster, err := s.mgr.Current().PredictBytes(record)
	if err != nil {
		return err
	}
	return s.placeLocked(key, record, s.clampClusterLocked(cluster), oldAddr)
}

// placeLocked writes record into a free segment of cluster (the pool
// falls back across clusters when it is empty), retiring and retrying
// around worn-out segments, then indexes the new copy and recycles the
// superseded one. Callers hold s.mu.
//
// lint:hotpath
func (s *Store) placeLocked(key uint64, record []byte, cluster, oldAddr int) error {
	temp := dap.TempNone
	if s.opts.KeyTemp != nil {
		temp = s.opts.KeyTemp(key) // lint:allow hotpathalloc — the cache's lock-free hotness probe; allocation-free by its own lint:hotpath contract
	}
	for attempt := 0; ; attempt++ {
		addr, servedBy, steered, ok := s.pool.GetFor(cluster, temp)
		if !ok {
			return s.noSpaceErrLocked()
		}
		if steered {
			s.stats.Steered++
		} else if servedBy != cluster {
			s.stats.Fallbacks++
		}
		werr := s.writeRecordLocked(addr, record)
		if werr == nil {
			s.tree.Put(key, int64(addr))
			if oldAddr >= 0 {
				s.retireOrRecycleOldLocked(oldAddr)
			}
			return nil
		}
		if s.opts.DisableRetirement || !errors.Is(werr, ErrWornOut) || attempt >= s.opts.PutRetries {
			return werr
		}
		s.retireLocked(addr)
	}
}

// putArbitraryLocked is the arbitrary-placement path: update in place when
// the key exists, otherwise take any free segment. Worn segments are still
// retired and the write relocated, so the baseline policy keeps its
// correctness (it pays for in-place churn with lifetime instead).
func (s *Store) putArbitraryLocked(key uint64, record []byte, oldAddr int) error {
	addr := oldAddr
	for attempt := 0; ; attempt++ {
		if addr < 0 {
			a, _, ok := s.pool.Get(0) // any cluster; pool falls back across all
			if !ok {
				return s.noSpaceErrLocked()
			}
			addr = a
		}
		werr := s.writeRecordLocked(addr, record)
		if werr == nil {
			s.tree.Put(key, int64(addr))
			return nil
		}
		if s.opts.DisableRetirement || !errors.Is(werr, ErrWornOut) || attempt >= s.opts.PutRetries {
			return werr
		}
		// A failed in-place update either corrupted the old record's CRC in
		// place or left it intact with a lower sequence number than the
		// replacement — recovery handles both.
		s.retireLocked(addr)
		addr = -1
	}
}

// writeRecordLocked lays the record over segment addr's current content
// (Algorithm 1 line 3: the untouched tail keeps its previous bits, so the
// differential write flips record bits only) and persists it. Callers hold
// s.mu.
func (s *Store) writeRecordLocked(addr int, record []byte) error {
	img := s.segScratchLocked()
	if err := s.dev.PeekInto(addr, img); err != nil {
		return err
	}
	copy(img[:len(record)], record)
	return s.writeSegmentLocked(addr, img)
}

// retireOrRecycleOldLocked frees a superseded record's segment — or retires
// the segment when the invalidation write reveals worn cells. The
// replacement record is already persisted and indexed; a stale copy that
// cannot be invalidated loses to it by sequence number during recovery.
// Callers hold s.mu.
func (s *Store) retireOrRecycleOldLocked(oldAddr int) {
	if err := s.recycleLocked(oldAddr); errors.Is(err, ErrWornOut) && !s.opts.DisableRetirement {
		s.retireLocked(oldAddr)
	}
}

// retireLocked permanently removes a segment from circulation. Callers
// hold s.mu.
func (s *Store) retireLocked(addr int) bool {
	if !s.pool.Retire(addr) { // lint:allow hotpathalloc — retirement is the cold wear-out path
		return false
	}
	s.stats.Retired++
	return true
}

// noSpaceErrLocked reports an allocation failure, escalating to
// ErrDegraded with live-capacity figures once retirement crosses the
// configured threshold. Callers hold s.mu.
func (s *Store) noSpaceErrLocked() error {
	retired := s.pool.RetiredCount()
	if float64(retired) >= s.opts.DegradeThreshold*float64(s.dataSegs) {
		return fmt.Errorf("%w: %d of %d data segments retired, %d live keys, %d pooled",
			ErrDegraded, retired, s.dataSegs, s.tree.Len(), s.pool.Free())
	}
	return ErrNoSpace
}

// recycleLocked resets the valid flag of the record at addr (a one-bit
// differential write, Algorithm 2 step 2) and returns the segment to the
// pool under the cluster of the image it just wrote (steps 3–4): a write
// that verified left the device holding exactly that image, so it is not
// read back. A non-nil error means the flag write did not take and the
// segment was not pooled; the caller applies its worn-segment policy.
// Callers hold s.mu.
func (s *Store) recycleLocked(addr int) error {
	img := s.segScratchLocked()
	if err := s.dev.PeekInto(addr, img); err != nil {
		return err
	}
	if img[0]&1 != 0 {
		img[0] &^= 1
		if err := s.writeSegmentLocked(addr, img); err != nil {
			return err
		}
	}
	c, err := s.mgr.Current().PredictBytes(img)
	if err != nil {
		return nil // segment unparsable under the live model; drop from pool
	}
	s.poolAdd(s.clampClusterLocked(c), addr)
	return nil
}

// writeSegmentLocked persists one segment image, through a redo-log
// transaction in crash-safe mode, and verifies it took: a write that left
// stuck cells disagreeing with the image reports ErrWornOut. Callers hold
// s.mu.
func (s *Store) writeSegmentLocked(addr int, img []byte) error {
	if s.txnMgr == nil {
		res, err := s.dev.Write(addr, img)
		if err != nil {
			if errors.Is(err, ErrWornOut) {
				s.stats.WornWrites++
			}
			return err
		}
		if res.FaultyBits > 0 {
			s.stats.WornWrites++
			return fmt.Errorf("kvstore: write left %d faulty bits at segment %d: %w", res.FaultyBits, addr, ErrWornOut)
		}
		return nil
	}
	tx := s.txnMgr.Begin()
	if err := tx.Write(addr, img); err != nil {
		return err
	}
	if err := tx.Commit(); err != nil {
		if errors.Is(err, ErrWornOut) {
			s.stats.WornWrites++
		}
		return err
	}
	return nil
}

// poolAdd recycles addr into cluster c, carrying the segment's cumulative
// write count when the hot/cold steering policy is active (Options.KeyTemp)
// so the pool's per-cluster wear averages stay current. Without steering it
// is a plain Add: the recycle path pays no extra device-lock round trip.
func (s *Store) poolAdd(c, addr int) {
	if s.opts.KeyTemp != nil {
		s.pool.AddWear(c, addr, s.dev.SegmentWriteCount(addr))
		return
	}
	s.pool.Add(c, addr)
}

// clampClusterLocked bounds a model prediction to the pool's live cluster
// range. Between a retrain's model swap (done under the manager's lock,
// not s.mu) and rebuildPoolLocked resizing the pool, the fresh model may
// predict cluster ids the pool does not have yet — dap.Pool panics on
// out-of-range ids. Clamped placements at worst take the nearest existing
// cluster, exactly the pool's own fallback behaviour. Callers hold s.mu.
func (s *Store) clampClusterLocked(c int) int {
	if c >= s.poolK {
		return s.poolK - 1
	}
	return c
}

// Get returns the value stored for key. The returned slice is a fresh
// caller-owned copy; use GetInto on the measured path.
//
// lint:hotpath
func (s *Store) Get(key uint64) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	addrV, ok := s.tree.Get(key)
	if !ok {
		return nil, false, nil
	}
	v, err := s.readValueLocked(key, int(addrV))
	if err != nil {
		return nil, false, err
	}
	s.stats.Gets++
	out := make([]byte, len(v)) // lint:allow hotpathalloc — Get hands out a caller-owned copy; GetInto is the zero-alloc variant
	copy(out, v)
	return out, true, nil
}

// GetInto is Get writing the value into dst's backing array (grown only
// when too small), for serving paths that reuse one buffer across reads.
// It returns the resulting slice, which may share storage with dst.
//
// lint:hotpath
func (s *Store) GetInto(key uint64, dst []byte) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	addrV, ok := s.tree.Get(key)
	if !ok {
		return dst[:0], false, nil
	}
	v, err := s.readValueLocked(key, int(addrV))
	if err != nil {
		return dst[:0], false, err
	}
	s.stats.Gets++
	if cap(dst) < len(v) {
		dst = make([]byte, len(v)) // lint:allow hotpathalloc — grows once to the value size
	}
	dst = dst[:len(v)]
	copy(dst, v)
	return dst, true, nil
}

// readValueLocked reads the record the index maps key to, at addr, into
// the store's read scratch and returns its value bytes. A record that is
// invalid, fails its CRC or holds another key reports ErrCorrupt, so an
// index entry pointing at the wrong segment never serves another key's
// value. The result aliases s.getBuf and is valid until the next read;
// callers hold s.mu.
func (s *Store) readValueLocked(key uint64, addr int) ([]byte, error) {
	if cap(s.getBuf) < s.dev.SegmentSize() {
		s.getBuf = make([]byte, s.dev.SegmentSize()) // lint:allow hotpathalloc — read scratch sized once to the segment size
	}
	seg := s.getBuf[:s.dev.SegmentSize()]
	if err := s.dev.ReadInto(addr, seg); err != nil {
		return nil, err
	}
	if seg[0]&1 == 0 {
		return nil, fmt.Errorf("kvstore: segment %d flagged invalid: %w", addr, ErrCorrupt)
	}
	n := int(binary.LittleEndian.Uint16(seg[recLenOff:]))
	if n > len(seg)-valueHeader {
		return nil, fmt.Errorf("kvstore: corrupt length %d at segment %d: %w", n, addr, ErrCorrupt)
	}
	rec := seg[:valueHeader+n]
	if binary.LittleEndian.Uint32(rec[recCRCOff:]) != recordCRC(rec) {
		return nil, fmt.Errorf("kvstore: CRC mismatch at segment %d: %w", addr, ErrCorrupt)
	}
	if got := binary.LittleEndian.Uint64(rec[recKeyOff:]); got != key {
		return nil, fmt.Errorf("kvstore: segment %d holds key %d, not key %d: %w", addr, got, key, ErrCorrupt)
	}
	return rec[valueHeader:], nil
}

// Delete implements the paper's Algorithm 2: find the address via the
// index, reset the valid flag bit (a one-bit differential write), and
// recycle the address into the pool under its content's cluster.
//
// lint:hotpath
func (s *Store) Delete(key uint64) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	addrV, ok := s.tree.Delete(key)
	if !ok {
		return false, nil
	}
	addr := int(addrV)
	if err := s.recycleLocked(addr); err != nil {
		if !errors.Is(err, ErrWornOut) || s.opts.DisableRetirement {
			return false, err
		}
		// The flag cell no longer clears: take the segment out of
		// circulation and shred the stale record so a future Recover
		// cannot resurrect the deleted key.
		s.retireLocked(addr)
		s.shredLocked(addr)
	}
	s.stats.Deletes++
	return true, nil
}

// shredLocked overwrites a retired segment with zeros, best-effort: even on
// a worn segment the non-stuck cells are programmed, which is enough to
// break a stale record's CRC so recovery treats the segment as free.
// Callers hold s.mu.
func (s *Store) shredLocked(addr int) {
	img := s.segScratchLocked()
	for i := range img {
		img[i] = 0
	}
	if err := s.writeSegmentLocked(addr, img); err != nil {
		return // the segment is already retired; nothing more to do
	}
}

// scanChunk bounds how many records one Scan critical section captures
// before the lock is released and the callbacks run.
const scanChunk = 128

// Scan calls fn for each key in [lo, hi] in ascending key order with its
// value, stopping early if fn returns false (the paper's SCAN).
//
// The callback runs with no store lock held, so it may safely call back
// into the store (Get, Put, Delete, even a nested Scan) — earlier versions
// held the store mutex across fn and deadlocked on re-entry. Keys and
// value copies are captured in bounded chunks under the lock, so a scan
// concurrent with writers is not one atomic snapshot: a key inserted or
// deleted after its chunk was captured may or may not be visited, but
// every value delivered was current when its chunk was read. The value
// slice is backed by a per-call buffer reused across callbacks; fn must
// copy it to retain it past the callback.
func (s *Store) Scan(lo, hi uint64, fn func(key uint64, value []byte) bool) error {
	err := s.scanChunks(lo, hi, fn)
	if err == nil {
		s.mu.Lock()
		s.stats.Scans++
		s.mu.Unlock()
	}
	return err
}

// scanChunks alternates between capturing up to scanChunk records under
// s.mu and delivering them to fn with the lock released.
func (s *Store) scanChunks(lo, hi uint64, fn func(key uint64, value []byte) bool) error {
	var (
		keys [scanChunk]uint64
		offs [scanChunk + 1]int
		buf  []byte
	)
	cursor := lo
	for {
		n := 0
		var readErr error
		s.mu.Lock()
		buf = buf[:0]
		s.tree.Range(cursor, hi, func(k uint64, addrV int64) bool {
			v, err := s.readValueLocked(k, int(addrV))
			if err != nil {
				readErr = err
				return false
			}
			keys[n] = k
			offs[n] = len(buf)
			buf = append(buf, v...)
			n++
			return n < scanChunk
		})
		offs[n] = len(buf)
		s.mu.Unlock()
		for i := 0; i < n; i++ {
			if !fn(keys[i], buf[offs[i]:offs[i+1]]) {
				return nil
			}
		}
		if readErr != nil {
			return readErr
		}
		if n < scanChunk {
			return nil // the range is exhausted
		}
		last := keys[n-1]
		if last >= hi || last == ^uint64(0) {
			return nil
		}
		cursor = last + 1
	}
}

// NextInto returns the smallest live key in [lo, hi] with its value copied
// into dst's backing array (grown only when too small). ok is false when
// the range holds no live key. It is the primitive shard routers use to
// merge ordered scans across independent stores.
func (s *Store) NextInto(lo, hi uint64, dst []byte) (key uint64, value []byte, ok bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	found := false
	var addrV int64
	s.tree.Range(lo, hi, func(k uint64, a int64) bool {
		key, addrV, found = k, a, true
		return false
	})
	if !found {
		return 0, dst[:0], false, nil
	}
	v, rerr := s.readValueLocked(key, int(addrV))
	if rerr != nil {
		return key, dst[:0], false, rerr
	}
	if cap(dst) < len(v) {
		dst = make([]byte, len(v))
	}
	dst = dst[:len(v)]
	copy(dst, v)
	return key, dst, true, nil
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tree.Len()
}

// Stats returns a snapshot of store counters (cumulative since open or the
// last ResetStats).
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Retrains = s.mgr.Retrains() - s.retrainBase
	return st
}

// ResetStats zeroes the store-level operation counters (Puts, Gets,
// Deletes, Scans, Fallbacks, WornWrites, Retired, Relocations) and rebases
// the retrain counter, so benchmarks that reset between phases measure
// only their own activity. Content, index, pool, and wear state are
// untouched; the device's counters are reset separately via
// Device().ResetStats.
func (s *Store) ResetStats() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats = Stats{}
	s.retrainBase = s.mgr.Retrains()
}

// Health is a live-capacity snapshot of the store.
type Health struct {
	DataSegments int  // segments in the data zone
	Retired      int  // segments permanently out of circulation
	LiveKeys     int  // records reachable through the index
	PoolFree     int  // free segments available for placement
	Degraded     bool // retirement has crossed Options.DegradeThreshold
}

// Add folds o into h. Degraded is true when ANY folded store has crossed
// its threshold: keys hashing to a degraded shard fail allocation even
// while other shards have room, so an aggregate must surface the weakest
// shard, not the average.
func (h *Health) Add(o Health) {
	h.DataSegments += o.DataSegments
	h.Retired += o.Retired
	h.LiveKeys += o.LiveKeys
	h.PoolFree += o.PoolFree
	h.Degraded = h.Degraded || o.Degraded
}

// Health reports how much of the store's capacity is still serviceable.
func (s *Store) Health() Health {
	s.mu.Lock()
	defer s.mu.Unlock()
	retired := s.pool.RetiredCount()
	return Health{
		DataSegments: s.dataSegs,
		Retired:      retired,
		LiveKeys:     s.tree.Len(),
		PoolFree:     s.pool.Free(),
		Degraded:     float64(retired) >= s.opts.DegradeThreshold*float64(s.dataSegs),
	}
}

// ScrubReport summarizes one incremental Scrub pass.
type ScrubReport struct {
	Scanned   int // segments examined
	Relocated int // live records moved off failing segments
	Retired   int // segments newly taken out of circulation
	Lost      int // indexed records whose data is already unrecoverable
}

// Add folds o into r.
func (r *ScrubReport) Add(o ScrubReport) {
	r.Scanned += o.Scanned
	r.Relocated += o.Relocated
	r.Retired += o.Retired
	r.Lost += o.Lost
}

// Scrub examines up to n segments, continuing round-robin from where the
// previous call stopped. A live record on a segment with stuck or fenced
// cells is relocated to a healthy segment and the old one retired; a
// faulty segment holding no live record is retired on sight; an indexed
// record that no longer passes its CRC is counted as lost (reads keep
// returning ErrCorrupt for it — the store never serves corrupt bytes as
// data). Run it periodically to catch damage before it spreads: stuck
// cells corrupt lazily, on the next overwrite or wear-leveling move.
func (s *Store) Scrub(n int) (ScrubReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var rep ScrubReport
	for i := 0; i < n && s.indexed > 0; i++ {
		addr := s.scrubCursor % s.indexed
		s.scrubCursor = addr + 1
		rep.Scanned++
		if s.pool.IsRetired(addr) {
			continue
		}
		stuck, failed, err := s.dev.SegmentFaults(addr)
		if err != nil {
			return rep, err
		}
		faulty := stuck > 0 || failed
		img := s.scrubBufLocked()
		if err := s.dev.PeekInto(addr, img); err != nil {
			return rep, err
		}
		key, _, value, ok := parseRecord(img)
		if ok {
			if a, live := s.tree.Get(key); live && int(a) == addr {
				if !faulty {
					continue // healthy live record
				}
				// Relocate, then retire. putLocked supersedes the copy at
				// addr (invalidating and recycling it); retiring pulls the
				// address back out of the pool for good.
				if err := s.putLocked(key, value); err != nil {
					return rep, err
				}
				if s.retireLocked(addr) {
					rep.Retired++
				}
				s.stats.Relocations++
				rep.Relocated++
				continue
			}
		} else if img[0]&1 == 1 {
			// Flagged valid but unparsable: if the index still points here,
			// the record's data is gone.
			if nlen := int(binary.LittleEndian.Uint16(img[recLenOff:])); nlen <= len(img)-valueHeader {
				k := binary.LittleEndian.Uint64(img[recKeyOff:])
				if a, live := s.tree.Get(k); live && int(a) == addr {
					rep.Lost++
				}
			}
		}
		if faulty && s.retireLocked(addr) {
			rep.Retired++
		}
	}
	return rep, nil
}

// scrubBufLocked returns Scrub's staging buffer (distinct from segBuf,
// which putLocked needs while Scrub relocates). Callers hold s.mu.
func (s *Store) scrubBufLocked() []byte {
	if cap(s.scrubBuf) < s.dev.SegmentSize() {
		s.scrubBuf = make([]byte, s.dev.SegmentSize())
	}
	return s.scrubBuf[:s.dev.SegmentSize()]
}

// NeedsRetrain reports whether any cluster's free list is at or below the
// low-water mark.
func (s *Store) NeedsRetrain() bool {
	return s.pool.NeedsRetrain()
}

// Retrain synchronously retrains the model on the device's current
// contents and rebuilds the pool from the currently free segments — the
// paper's Figure 16 step 3, without stopping the world.
//
// Writes are NOT paused: the snapshot reads segments one at a time through
// the device's own lock, so a concurrent Put may interleave and the
// training set is only loosely consistent. That is safe — the snapshot is
// training data, not placement state. Placement stays correct because
// rebuildPoolLocked re-reads every free segment's actual content under
// s.mu after the new model is swapped in, and writes that land between the
// model swap and the pool rebuild at worst take a fallback cluster (the
// pool still reflects the old model's clustering), never a wrong segment.
// Concurrent Retrain calls are serialized by the manager.
func (s *Store) Retrain() error {
	data, err := segmentImages(s.dev)
	if err != nil {
		return err
	}
	cfg := s.mgr.Current().Config()
	model, err := s.mgr.RetrainSync(data, cfg)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rebuildPoolLocked(model)
}

// Quiesce blocks until any in-flight background retrain (launched by the
// write path when the density drift threshold trips) has completed and
// its pool rebuild has been applied. Tests and orderly shutdown use it to
// join the retrain goroutine instead of racing it.
func (s *Store) Quiesce() {
	s.mgr.Quiesce()
}

// retrainAsyncLocked launches a background retrain; the pool is rebuilt
// under the new model once it is ready. Callers hold s.mu.
func (s *Store) retrainAsyncLocked() {
	data, err := segmentImages(s.dev)
	if err != nil {
		return
	}
	cfg := s.mgr.Current().Config()
	// The callback runs on the retrain goroutine after the launching Put
	// released s.mu, so its Lock is a fresh acquisition, not a nested one.
	// lint:allow lockorder — callback runs after the creation-site lock is released
	s.mgr.RetrainAsync(data, cfg, func(m *core.Model, err error) {
		if err != nil {
			return
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		_ = s.rebuildPoolLocked(m)
	})
}

// rebuildPoolLocked re-predicts every currently free *indexed* segment
// under the new model. Callers hold s.mu.
func (s *Store) rebuildPoolLocked(model *core.Model) error {
	used := map[int]bool{}
	s.tree.Range(0, ^uint64(0), func(_ uint64, addrV int64) bool {
		used[int(addrV)] = true
		return true
	})
	if err := s.pool.Reset(model.K()); err != nil {
		return err
	}
	s.poolK = model.K()
	free := make([]int, 0, s.indexed)
	for addr := 0; addr < s.indexed; addr++ {
		if !used[addr] {
			free = append(free, addr)
		}
	}
	_, err := fillPool(model, s.dev, free, s.poolAdd)
	return err
}

// Recover rebuilds a store from a device's persistent contents alone: it
// scans every segment, re-indexes the valid self-describing records
// (flag + length + key headers), trains a model on the contents (or reuse
// one via RecoverWith), and pools the remaining segments. This is the
// crash-recovery path: the RB-tree index and the address pool live in
// DRAM and are reconstructible, exactly as the paper's Figure 3 layout
// implies.
func Recover(dev *nvm.Device, modelCfg core.Config, opts Options) (*Store, error) {
	segBits := dev.SegmentSize() * 8
	if modelCfg.InputBits == 0 {
		modelCfg.InputBits = segBits
	}
	data, err := segmentImages(dev)
	if err != nil {
		return nil, err
	}
	model, err := core.Train(data, modelCfg)
	if err != nil {
		return nil, err
	}
	return RecoverWith(dev, model, opts)
}

// RecoverWith is Recover with a pre-trained (e.g. persisted) model. In
// crash-safe mode, committed-but-unapplied redo-log transactions are
// replayed (and torn ones discarded) before the record scan.
func RecoverWith(dev *nvm.Device, model *core.Model, opts Options) (*Store, error) {
	s, err := openWith(dev, model, opts, true)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.indexed = s.dataSegs
	// A record is recognized by its set valid flag, parsable length, and
	// matching CRC; everything else — pre-use garbage, torn writes,
	// cell-corrupted records — is treated as free space.
	seqOf := map[uint64]uint32{}
	var free, stale []int
	var maxSeq uint32
	haveSeq := false
	for addr := 0; addr < s.dataSegs; addr++ {
		if _, failed, ferr := dev.SegmentFaults(addr); ferr != nil {
			return nil, ferr
		} else if failed {
			// A fenced segment refuses every write, so a record on it can
			// be neither invalidated nor shredded — trusting it would let a
			// deleted key resurrect. Retire it instead of re-indexing.
			if !opts.DisableRetirement {
				s.retireLocked(addr)
			}
			continue
		}
		img, err := dev.Peek(addr)
		if err != nil {
			return nil, err
		}
		key, seq, _, ok := parseRecord(img)
		if !ok {
			free = append(free, addr)
			continue
		}
		if !haveSeq || seqAfter(seq, maxSeq) {
			maxSeq, haveSeq = seq, true
		}
		if oldA, dup := s.tree.Get(key); dup {
			// Two valid records for one key: a Put persisted its
			// replacement but did not get to invalidate the old copy
			// (crash in between, or a worn segment refusing the flag
			// write). The higher sequence number is the live record.
			loser := addr
			if seqAfter(seq, seqOf[key]) {
				loser = int(oldA)
				s.tree.Put(key, int64(addr))
				seqOf[key] = seq
			}
			stale = append(stale, loser)
			continue
		}
		s.tree.Put(key, int64(addr))
		seqOf[key] = seq
	}
	// Pool the free space, then invalidate the stale copies (best-effort:
	// worn segments may refuse and are then retired) and return them to
	// circulation after it.
	if _, err := fillPool(model, dev, free, s.poolAdd); err != nil {
		return nil, err
	}
	for _, addr := range stale {
		s.retireOrRecycleOldLocked(addr)
	}
	if haveSeq {
		s.seq = maxSeq + 1
	}
	return s, nil
}

// --------------------------------------------------- clustered allocator --

// Predictor maps a segment image to a cluster id. core.Model implements
// it; so can any content model an allocator should place through (a PNW
// model, a VAE+K-means pair).
type Predictor interface {
	PredictBytes(b []byte) (int, error)
}

// fillPool peeks every address in addrs, predicts each image's cluster —
// in parallel through PredictBytesBatch when pred has it — and calls
// add(cluster, addr) in address order, so a pool's FIFO contents are
// deterministic. A failed prediction skips only its own slot: the rest
// are added, and the first error is returned with the number added. A
// peek failure returns before anything is added. It is the one pool fill
// behind the store's open, IndexMore, retrain and recovery and behind
// NewClusteredAllocator.
func fillPool(pred Predictor, dev *nvm.Device, addrs []int, add func(c, addr int)) (int, error) {
	imgs := make([][]byte, len(addrs))
	for i, addr := range addrs {
		img, err := dev.Peek(addr)
		if err != nil {
			return 0, err
		}
		imgs[i] = img
	}
	var clusters []int
	var firstErr error
	if bp, ok := pred.(interface {
		PredictBytesBatch([][]byte) ([]int, error)
	}); ok {
		clusters, firstErr = bp.PredictBytesBatch(imgs)
	} else {
		clusters = make([]int, len(imgs))
		for i, img := range imgs {
			c, err := pred.PredictBytes(img)
			if err != nil {
				c = -1
				if firstErr == nil {
					firstErr = fmt.Errorf("kvstore: segment %d: %w", addrs[i], err)
				}
			}
			clusters[i] = c
		}
	}
	added := 0
	for i, c := range clusters {
		if c < 0 {
			continue
		}
		add(c, addrs[i])
		added++
	}
	return added, firstErr
}

// ClusteredAllocator is E2-NVM's index.Allocator — Algorithm 1 outside the
// store: Place predicts the value's cluster and takes that cluster's first
// free segment from the allocator's own dynamic address pool; Release
// re-predicts the segment's content and pools it there. Existing NVM data
// structures place their values through it in the "after plugging to
// E2-NVM" configuration of Figure 12, and the experiments place through
// it. It is safe for concurrent use when its Predictor is.
type ClusteredAllocator struct {
	pred      Predictor
	pool      *dap.Pool
	fallbacks atomic.Int64
}

// NewClusteredAllocator builds a k-cluster pool over the free segments
// addrs of dev, each pooled under the cluster pred predicts for its
// current content.
func NewClusteredAllocator(pred Predictor, k int, dev *nvm.Device, addrs []int) (*ClusteredAllocator, error) {
	pool, err := dap.New(k)
	if err != nil {
		return nil, err
	}
	if _, err := fillPool(pred, dev, addrs, func(c, addr int) { pool.Add(c, addr) }); err != nil {
		return nil, err
	}
	return &ClusteredAllocator{pred: pred, pool: pool}, nil
}

// Place implements index.Allocator. Values wider than the model's segment
// report ErrBadSegment instead of panicking.
func (a *ClusteredAllocator) Place(value []byte) (int, error) {
	cluster, err := a.pred.PredictBytes(value)
	if err != nil {
		return 0, err
	}
	addr, servedBy, ok := a.pool.Get(cluster)
	if !ok {
		return 0, index.ErrNoSpace
	}
	if servedBy != cluster {
		a.fallbacks.Add(1)
	}
	return addr, nil
}

// Release implements index.Allocator. Content the predictor cannot parse
// is pooled under cluster 0.
func (a *ClusteredAllocator) Release(addr int, content []byte) {
	cluster := 0
	if content != nil {
		if c, err := a.pred.PredictBytes(content); err == nil {
			cluster = c
		}
	}
	a.pool.Add(cluster, addr)
}

// FreeCount implements index.Allocator.
func (a *ClusteredAllocator) FreeCount() int { return a.pool.Free() }

// Fallbacks counts placements served by a different cluster than predicted
// because the predicted cluster's free list was empty.
func (a *ClusteredAllocator) Fallbacks() int { return int(a.fallbacks.Load()) }

// Pool returns the allocator's dynamic address pool, for footprint
// accounting and for callers that predict a cluster themselves (e.g. from
// a padded partial item) and pop from it directly.
func (a *ClusteredAllocator) Pool() *dap.Pool { return a.pool }
