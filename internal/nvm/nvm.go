// Package nvm simulates a PCM-like byte-addressable non-volatile memory
// device (the paper's evaluations run on Intel Optane, one kind of PCM).
//
// The simulator models exactly what the paper measures:
//
//   - per-write bit flips (PCM cells are written individually, so flipped
//     bits — not written words — determine energy and wear);
//   - cache-line write granularity: unchanged 64 B cache lines are skipped
//     by the controller, which is where the latency win in the paper's
//     Figure 1 comes from;
//   - per-segment write counts and optional per-bit wear counters (Fig 19);
//   - an in-controller wear-leveling unit (start-gap style) that swaps a
//     memory segment every ψ writes, matching the paper's §2.1 model;
//   - an energy model charging the literature's PCM constants per flipped
//     bit (≈50 pJ/b to write, ≈2 pJ/b to read) plus fixed access overheads.
//
// All methods are safe for concurrent use.
package nvm

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Config describes the simulated device geometry and cost model.
type Config struct {
	// SegmentSize is the size in bytes of one memory segment (the unit of
	// allocation handed out by the dynamic address pool).
	SegmentSize int
	// NumSegments is the number of segments in the device's data zone.
	NumSegments int
	// CacheLineSize is the controller write granularity in bytes. Cache
	// lines whose content is unchanged are not written. Default 64.
	CacheLineSize int

	// WriteEnergyPerBitPJ is the energy to flip one PCM cell (default 50,
	// the PCM figure the paper quotes in its introduction).
	WriteEnergyPerBitPJ float64
	// ReadEnergyPerBitPJ is the energy to sense one bit during the
	// read-before-write or a read operation (default 2).
	ReadEnergyPerBitPJ float64
	// AccessOverheadPJ is the fixed per-operation controller/bus energy
	// (default 2000 pJ).
	AccessOverheadPJ float64

	// WriteBaseLatencyNs is the fixed write latency (default 300 ns,
	// Optane-class). Each dirty cache line adds WriteLineLatencyNs
	// (default 100 ns); clean lines are skipped.
	WriteBaseLatencyNs float64
	WriteLineLatencyNs float64
	// ReadLatencyNs is the latency of reading one segment (default 170 ns
	// plus 10 ns per cache line).
	ReadLatencyNs     float64
	ReadLineLatencyNs float64

	// WearLevelPeriod is ψ: the controller performs one start-gap segment
	// move every ψ segment writes. 0 disables wear leveling.
	WearLevelPeriod int

	// TrackBitWear enables per-bit flip counters (needed for the Fig 19
	// CDFs; costs 4 bytes of host memory per device bit, so keep pools
	// modest when enabled).
	TrackBitWear bool

	// EnduranceWrites is the per-cell write endurance budget used by
	// lifetime estimates and the wear-out fault model (default 1e8).
	EnduranceWrites float64

	// Fault configures probabilistic cell wear-out (see fault.go). The zero
	// value disables it.
	Fault FaultConfig

	// EmulateLatency makes Read/ReadInto/Write also impose their modeled
	// latency on the host clock: the call busy-spins until the modeled
	// nanoseconds have elapsed since it began, the way a CPU stalls on a
	// synchronous NVM load. Accounting is unchanged — the same LatencyNs
	// totals accumulate either way. Off by default; wall-clock benchmarks
	// opt in so their tail latencies include device time, not just host
	// simulation softcosts.
	EmulateLatency bool

	// VerifyWrites models a controller that reads back after programming:
	// when a write leaves stuck cells disagreeing with the requested data,
	// Write returns ErrWornOut (the WriteResult still reports the cost and
	// FaultyBits). Without it, callers must inspect WriteResult.FaultyBits.
	VerifyWrites bool
}

// DefaultConfig returns the cost-model defaults described in DESIGN.md §6
// for a device with the given geometry.
func DefaultConfig(segSize, numSegs int) Config {
	return Config{
		SegmentSize:         segSize,
		NumSegments:         numSegs,
		CacheLineSize:       64,
		WriteEnergyPerBitPJ: 50,
		ReadEnergyPerBitPJ:  2,
		AccessOverheadPJ:    2000,
		WriteBaseLatencyNs:  300,
		WriteLineLatencyNs:  100,
		ReadLatencyNs:       170,
		ReadLineLatencyNs:   10,
		WearLevelPeriod:     0,
		EnduranceWrites:     1e8,
	}
}

func (c *Config) validate() error {
	if c.SegmentSize <= 0 {
		return fmt.Errorf("nvm: SegmentSize %d must be positive: %w", c.SegmentSize, ErrBadConfig)
	}
	if c.NumSegments <= 0 {
		return fmt.Errorf("nvm: NumSegments %d must be positive: %w", c.NumSegments, ErrBadConfig)
	}
	if c.CacheLineSize <= 0 {
		c.CacheLineSize = 64
	}
	if c.WriteEnergyPerBitPJ == 0 {
		c.WriteEnergyPerBitPJ = 50
	}
	if c.ReadEnergyPerBitPJ == 0 {
		c.ReadEnergyPerBitPJ = 2
	}
	if c.AccessOverheadPJ == 0 {
		c.AccessOverheadPJ = 2000
	}
	if c.WriteBaseLatencyNs == 0 {
		c.WriteBaseLatencyNs = 300
	}
	if c.WriteLineLatencyNs == 0 {
		c.WriteLineLatencyNs = 100
	}
	if c.ReadLatencyNs == 0 {
		c.ReadLatencyNs = 170
	}
	if c.ReadLineLatencyNs == 0 {
		c.ReadLineLatencyNs = 10
	}
	if c.EnduranceWrites == 0 {
		c.EnduranceWrites = 1e8
	}
	return c.Fault.validate()
}

// ErrBadAddress is returned for out-of-range segment addresses.
var ErrBadAddress = errors.New("nvm: segment address out of range")

// ErrBadConfig is returned by NewDevice for an invalid geometry.
var ErrBadConfig = errors.New("nvm: invalid device config")

// ErrSegmentSize is returned when a buffer's length does not match the
// device's segment size.
var ErrSegmentSize = errors.New("nvm: buffer length != segment size")

// WriteResult reports the cost of a single segment write.
type WriteResult struct {
	BitsFlipped  int     // PCM cells actually flipped
	BitsWritten  int     // payload bits presented by the caller
	LinesWritten int     // dirty cache lines the controller had to write
	LinesSkipped int     // clean cache lines skipped
	EnergyPJ     float64 // energy charged for this operation
	LatencyNs    float64 // modeled device latency
	WearLevelOps int     // segment moves triggered by the wear-leveling unit
	FaultyBits   int     // stuck cells left disagreeing with the written data
}

// Stats is a snapshot of cumulative device activity.
type Stats struct {
	Writes           uint64
	Reads            uint64
	BitsFlipped      uint64
	BitsWritten      uint64
	BitsRead         uint64
	LinesWritten     uint64
	LinesSkipped     uint64
	WearLevelMoves   uint64
	WearLevelFlips   uint64
	EnergyPJ         float64
	WriteLatencyNs   float64
	ReadLatencyNs    float64
	MaxSegmentWrites uint64
	FaultEvents      uint64 // wear-out events (probabilistic or injected)
	StuckBits        uint64 // total cells currently stuck device-wide
	FailedSegments   uint64 // segments fenced by FailSegment
	FaultyWrites     uint64 // writes that left FaultyBits > 0 or hit a failed segment
}

// Add folds o into s: every counter sums, except MaxSegmentWrites, which
// takes the maximum (the hottest segment across devices). It is the one
// place multi-device aggregates are computed.
func (s *Stats) Add(o Stats) {
	s.Writes += o.Writes
	s.Reads += o.Reads
	s.BitsFlipped += o.BitsFlipped
	s.BitsWritten += o.BitsWritten
	s.BitsRead += o.BitsRead
	s.LinesWritten += o.LinesWritten
	s.LinesSkipped += o.LinesSkipped
	s.WearLevelMoves += o.WearLevelMoves
	s.WearLevelFlips += o.WearLevelFlips
	s.EnergyPJ += o.EnergyPJ
	s.WriteLatencyNs += o.WriteLatencyNs
	s.ReadLatencyNs += o.ReadLatencyNs
	s.FaultEvents += o.FaultEvents
	s.StuckBits += o.StuckBits
	s.FailedSegments += o.FailedSegments
	s.FaultyWrites += o.FaultyWrites
	if o.MaxSegmentWrites > s.MaxSegmentWrites {
		s.MaxSegmentWrites = o.MaxSegmentWrites
	}
}

// Device is a simulated PCM device.
type Device struct {
	cfg Config

	mu        sync.Mutex
	mem       []byte   // NumSegments * SegmentSize bytes (physical layout)
	segWrites []uint64 // per logical segment: write-op count
	bitWear   []uint32 // optional per logical bit: flip count

	// Start-gap wear leveling state. Physical slots number NumSegments+1;
	// the extra slot is the roaming gap. logical l maps to physical
	// (l + start) mod (N+1), skipping the gap.
	gapPos        int
	start         int
	writesSinceWL int

	// Fault state, all indexed by physical slot (NumSegments+1 entries) and
	// lazily allocated so fault-free devices pay nothing. See fault.go.
	rng       *rand.Rand // private fault RNG, nil when wear faults are off
	stuckMask [][]byte   // per slot: bitmask of stuck cells (nil = none)
	stuckVal  [][]byte   // per slot: the values those cells are stuck at
	failedSeg []bool     // per slot: fenced by FailSegment

	stats Stats
}

// NewDevice creates a device with cfg, with all cells initialized to zero.
func NewDevice(cfg Config) (*Device, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	d := &Device{
		cfg:       cfg,
		mem:       make([]byte, (cfg.NumSegments+1)*cfg.SegmentSize),
		segWrites: make([]uint64, cfg.NumSegments),
		gapPos:    cfg.NumSegments, // gap starts in the spare slot
	}
	if cfg.TrackBitWear {
		d.bitWear = make([]uint32, cfg.NumSegments*cfg.SegmentSize*8)
	}
	if cfg.Fault.ProbPerWrite > 0 {
		d.rng = rand.New(rand.NewSource(cfg.Fault.Seed))
	}
	return d, nil
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// NumSegments returns the number of logical segments.
func (d *Device) NumSegments() int { return d.cfg.NumSegments }

// SegmentSize returns the segment size in bytes.
func (d *Device) SegmentSize() int { return d.cfg.SegmentSize }

// physIndex maps a logical segment to its physical slot under start-gap
// (Qureshi et al.): PA = (LA + Start) mod N, then slots at or past the gap
// are shifted down by one so the gap slot is never addressed.
func (d *Device) physIndex(logical int) int {
	p := (logical + d.start) % d.cfg.NumSegments
	if p >= d.gapPos {
		p++
	}
	return p
}

func (d *Device) segBytes(phys int) []byte {
	off := phys * d.cfg.SegmentSize
	return d.mem[off : off+d.cfg.SegmentSize]
}

// emulate busy-spins until ns modeled nanoseconds have elapsed since t0.
// Spinning — not sleeping — is how a CPU waits out a synchronous NVM
// load, and stays accurate at the sub-microsecond scale where timer
// sleeps cannot. Runs with the device lock held: the device serves one
// operation at a time, so queueing delay behind a slow write is part of
// what the emulation models.
func emulate(t0 time.Time, ns float64) {
	d := time.Duration(ns)
	// lint:allow deepdeterminism — the clock only paces the spin-wait; no result depends on it, and experiments leave EmulateLatency off
	for time.Since(t0) < d {
	}
}

// Read returns a copy of the segment's current content and charges read
// energy/latency.
func (d *Device) Read(addr int) ([]byte, error) {
	out := make([]byte, d.cfg.SegmentSize)
	if err := d.ReadInto(addr, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Peek returns the segment content without charging any cost. It models the
// software layer's cached view of memory (the dynamic address pool already
// knows what free segments contain) and is also used by tests.
func (d *Device) Peek(addr int) ([]byte, error) {
	out := make([]byte, d.cfg.SegmentSize)
	if err := d.PeekInto(addr, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadInto copies the segment's current content into dst (which must be
// exactly one segment long) and charges read energy/latency — the
// allocation-free variant of Read for the measured path.
func (d *Device) ReadInto(addr int, dst []byte) error {
	var t0 time.Time
	if d.cfg.EmulateLatency {
		t0 = time.Now() // lint:allow deepdeterminism — only paces the opt-in latency spin; off in every experiment
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if addr < 0 || addr >= d.cfg.NumSegments {
		return fmt.Errorf("%w: %d", ErrBadAddress, addr)
	}
	if len(dst) != d.cfg.SegmentSize {
		return fmt.Errorf("nvm: read into %d bytes from %d-byte segment: %w", len(dst), d.cfg.SegmentSize, ErrSegmentSize)
	}
	src := d.segBytes(d.physIndex(addr))
	copy(dst, src)
	lines := float64(d.linesPerSegment())
	d.stats.Reads++
	d.stats.BitsRead += uint64(len(src) * 8)
	d.stats.EnergyPJ += float64(len(src)*8)*d.cfg.ReadEnergyPerBitPJ + d.cfg.AccessOverheadPJ
	d.stats.ReadLatencyNs += d.cfg.ReadLatencyNs + lines*d.cfg.ReadLineLatencyNs
	if d.cfg.EmulateLatency {
		emulate(t0, d.cfg.ReadLatencyNs+lines*d.cfg.ReadLineLatencyNs)
	}
	return nil
}

// PeekInto copies the segment content into dst (exactly one segment long)
// without charging any cost — the allocation-free variant of Peek.
func (d *Device) PeekInto(addr int, dst []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if addr < 0 || addr >= d.cfg.NumSegments {
		return fmt.Errorf("%w: %d", ErrBadAddress, addr)
	}
	if len(dst) != d.cfg.SegmentSize {
		return fmt.Errorf("nvm: peek into %d bytes from %d-byte segment: %w", len(dst), d.cfg.SegmentSize, ErrSegmentSize)
	}
	copy(dst, d.segBytes(d.physIndex(addr)))
	return nil
}

func (d *Device) linesPerSegment() int {
	return (d.cfg.SegmentSize + d.cfg.CacheLineSize - 1) / d.cfg.CacheLineSize
}

// Write stores data into segment addr using differential (data-comparison)
// writes: only cells whose value changes are flipped, and only dirty cache
// lines are written. data must be exactly one segment long.
//
// lint:hotpath
func (d *Device) Write(addr int, data []byte) (WriteResult, error) {
	return d.write(addr, data, true)
}

// WriteRaw stores data into segment addr modeling a naive controller that
// rewrites every cell (every written bit is charged as a flip and every
// cache line is dirty). It is the "no bit-flip optimization" baseline.
func (d *Device) WriteRaw(addr int, data []byte) (WriteResult, error) {
	return d.write(addr, data, false)
}

func (d *Device) write(addr int, data []byte, differential bool) (WriteResult, error) {
	var t0 time.Time
	if d.cfg.EmulateLatency {
		t0 = time.Now() // lint:allow deepdeterminism — only paces the opt-in latency spin; off in every experiment
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	var res WriteResult
	if addr < 0 || addr >= d.cfg.NumSegments {
		return res, fmt.Errorf("%w: %d", ErrBadAddress, addr)
	}
	if len(data) != d.cfg.SegmentSize {
		return res, fmt.Errorf("nvm: write of %d bytes to %d-byte segment: %w", len(data), d.cfg.SegmentSize, ErrSegmentSize)
	}
	phys := d.physIndex(addr)
	if d.failedSeg != nil && d.failedSeg[phys] {
		d.stats.FaultyWrites++
		return res, fmt.Errorf("nvm: write to failed segment %d: %w", addr, ErrWornOut)
	}
	dst := d.segBytes(phys)

	cl := d.cfg.CacheLineSize
	for off := 0; off < len(data); off += cl {
		end := off + cl
		if end > len(data) {
			end = len(data)
		}
		var flips int
		dirty := false
		for i := off; i < end; i++ {
			x := dst[i] ^ data[i]
			if x != 0 {
				dirty = true
				flips += onesCount8(x)
				if d.bitWear != nil {
					d.recordBitWear(addr, i, x)
				}
			}
		}
		if differential {
			if dirty {
				res.LinesWritten++
				res.BitsFlipped += flips
			} else {
				res.LinesSkipped++
			}
		} else {
			// Naive write: every cell is re-programmed.
			res.LinesWritten++
			res.BitsFlipped += (end - off) * 8
			if d.bitWear != nil {
				d.recordAllBitWear(addr, off, end)
			}
		}
		copy(dst[off:end], data[off:end])
	}
	res.BitsWritten = len(data) * 8

	// Stuck cells ignore the programming pulse and keep their value; any
	// that now disagree with the requested data are the write's fault bits.
	if d.stuckMask != nil {
		if mask := d.stuckMask[phys]; mask != nil {
			res.FaultyBits = applyStuck(dst, data, mask, d.stuckVal[phys])
		}
	}

	res.EnergyPJ = float64(res.BitsFlipped)*d.cfg.WriteEnergyPerBitPJ + d.cfg.AccessOverheadPJ
	res.LatencyNs = d.cfg.WriteBaseLatencyNs + float64(res.LinesWritten)*d.cfg.WriteLineLatencyNs

	d.segWrites[addr]++
	if d.segWrites[addr] > d.stats.MaxSegmentWrites {
		d.stats.MaxSegmentWrites = d.segWrites[addr]
	}
	if d.rng != nil {
		d.maybeWearFault(addr, phys, dst) // lint:allow hotpathalloc — fault events only fire on the end-of-life tail
	}

	// Wear leveling runs (and its costs are folded into res) before the
	// cumulative counters are updated, so Stats() sees the same energy and
	// latency the caller is charged.
	if d.cfg.WearLevelPeriod > 0 {
		d.writesSinceWL++
		if d.writesSinceWL >= d.cfg.WearLevelPeriod {
			d.writesSinceWL = 0
			wlFlips := d.startGapMove()
			res.WearLevelOps++
			res.EnergyPJ += float64(wlFlips) * d.cfg.WriteEnergyPerBitPJ
			res.LatencyNs += d.cfg.WriteBaseLatencyNs + float64(d.linesPerSegment())*d.cfg.WriteLineLatencyNs
		}
	}

	d.stats.Writes++
	d.stats.BitsFlipped += uint64(res.BitsFlipped)
	d.stats.BitsWritten += uint64(res.BitsWritten)
	d.stats.LinesWritten += uint64(res.LinesWritten)
	d.stats.LinesSkipped += uint64(res.LinesSkipped)
	d.stats.EnergyPJ += res.EnergyPJ
	d.stats.WriteLatencyNs += res.LatencyNs
	if d.cfg.EmulateLatency {
		emulate(t0, res.LatencyNs)
	}

	if res.FaultyBits > 0 {
		d.stats.FaultyWrites++
		if d.cfg.VerifyWrites {
			return res, fmt.Errorf("nvm: verify failed at segment %d, %d stuck bits: %w", addr, res.FaultyBits, ErrWornOut)
		}
	}
	return res, nil
}

// recordBitWear bumps wear counters for the differing bits of byte i in the
// logical segment addr.
func (d *Device) recordBitWear(addr, byteIdx int, xor byte) {
	base := (addr*d.cfg.SegmentSize + byteIdx) * 8
	for b := 0; b < 8; b++ {
		if xor&(1<<uint(b)) != 0 {
			d.bitWear[base+b]++
		}
	}
}

func (d *Device) recordAllBitWear(addr, off, end int) {
	base := (addr*d.cfg.SegmentSize + off) * 8
	for i := 0; i < (end-off)*8; i++ {
		d.bitWear[base+i]++
	}
}

// startGapMove advances the gap one slot (start-gap wear leveling): the
// segment adjacent to the gap is copied into the gap and becomes the new
// location of its logical address. Returns the number of cell flips the
// copy incurred (charged as wear-leveling overhead).
func (d *Device) startGapMove() int {
	n := d.cfg.NumSegments + 1
	gap := d.gapPos
	victim := gap - 1
	if victim < 0 {
		victim = n - 1
	}
	src := d.segBytes(victim)
	dst := d.segBytes(gap)
	flips := 0
	for i := range src {
		flips += onesCount8(src[i] ^ dst[i])
		dst[i] = src[i]
	}
	// Stuck cells in the destination slot hold their values through the
	// copy: the wear-leveling unit can silently corrupt relocated data,
	// which only the CRC layer above will notice.
	if d.stuckMask != nil {
		if mask := d.stuckMask[gap]; mask != nil {
			applyStuck(dst, src, mask, d.stuckVal[gap])
		}
	}
	d.gapPos = victim
	if d.gapPos == n-1 {
		// Gap wrapped all the way around: rotate the start register.
		d.start = (d.start + 1) % d.cfg.NumSegments
	}
	// Energy and latency for the move are charged by the caller (write)
	// through the WriteResult, so Stats() and res stay consistent.
	d.stats.WearLevelMoves++
	d.stats.WearLevelFlips += uint64(flips)
	d.stats.BitsFlipped += uint64(flips)
	return flips
}

// Fill initializes every segment with bytes drawn from r without charging
// writes, flips, or energy. It models the pre-existing ("old") data the
// experiments seed the pool with.
func (d *Device) Fill(r *rand.Rand) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for s := 0; s < d.cfg.NumSegments; s++ {
		seg := d.segBytes(d.physIndex(s))
		for i := range seg {
			seg[i] = byte(r.Intn(256))
		}
	}
}

// FillSegment overwrites one segment's content without charging any cost
// (seed/warm-up helper).
func (d *Device) FillSegment(addr int, data []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if addr < 0 || addr >= d.cfg.NumSegments {
		return fmt.Errorf("%w: %d", ErrBadAddress, addr)
	}
	if len(data) != d.cfg.SegmentSize {
		return fmt.Errorf("nvm: fill of %d bytes to %d-byte segment: %w", len(data), d.cfg.SegmentSize, ErrSegmentSize)
	}
	copy(d.segBytes(d.physIndex(addr)), data)
	return nil
}

// Stats returns a snapshot of cumulative counters.
func (d *Device) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// ResetStats zeroes the cumulative counters (contents, wear-leveling state,
// and wear counters are preserved).
func (d *Device) ResetStats() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats = Stats{}
}

// SegmentWrites returns a copy of the per-segment write-op counters.
func (d *Device) SegmentWrites() []uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]uint64, len(d.segWrites))
	copy(out, d.segWrites)
	return out
}

// SegmentWriteCount returns the write-op counter of a single segment —
// the wear statistic the address pool's hot/cold steering averages per
// cluster — without copying the whole table. Out-of-range addresses
// report 0.
func (d *Device) SegmentWriteCount(addr int) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if addr < 0 || addr >= len(d.segWrites) {
		return 0
	}
	return d.segWrites[addr]
}

// BitWear returns a copy of the per-bit flip counters, or nil when
// TrackBitWear is disabled.
func (d *Device) BitWear() []uint32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.bitWear == nil {
		return nil
	}
	out := make([]uint32, len(d.bitWear))
	copy(out, d.bitWear)
	return out
}

// LifetimeFraction estimates the consumed fraction of device lifetime as
// (max per-bit flips) / endurance. Returns 0 when bit wear is untracked.
func (d *Device) LifetimeFraction() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.bitWear == nil {
		return 0
	}
	var max uint32
	for _, w := range d.bitWear {
		if w > max {
			max = w
		}
	}
	return float64(max) / d.cfg.EnduranceWrites
}

func onesCount8(b byte) int {
	// Inlined 8-bit popcount (nibble lookup), avoiding a math/bits import
	// dependency in the innermost loop for clarity of the cost model.
	const lut = "\x00\x01\x01\x02\x01\x02\x02\x03\x01\x02\x02\x03\x02\x03\x03\x04"
	return int(lut[b&0xf]) + int(lut[b>>4])
}
