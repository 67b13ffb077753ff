// Package txn provides crash-consistent transactional writes over the
// simulated NVM device — the role PMDK's libpmemobj transactions play in
// the paper's evaluation ("We use PMDK's transactions to persist writes").
//
// The design is a classic redo log: a transaction stages segment writes in
// DRAM, persists them to a log region with a commit record, applies them
// to their home segments, and finally invalidates the log. Recovery after
// a crash replays committed-but-unapplied logs and discards torn ones, so
// a segment write is always all-or-nothing even if the "power" fails
// between cache-line writes.
//
// The log layout per transaction slot:
//
//	segment 0 of the slot: header
//	  [0]     state byte (free / staged / committed)
//	  [1:5]   magic (distinguishes log headers from pre-use garbage)
//	  [5:7]   entry count (uint16 LE)
//	  [7:15]  transaction id (uint64 LE)
//	  [15:19] header CRC-32C over [1:15] and the entry table
//	  [19:..] per-entry records: target address (uint32 LE) followed by
//	          the CRC-32C of the staged image (uint32 LE)
//	segments 1..n: the staged images, one per entry
//
// The checksums exist because the log lives on the same wear-prone medium
// as the data: a worn-out log segment can corrupt the bits of a commit
// record in place. Recovery trusts a header only if its CRC matches, and
// replays an entry only if its staged image's CRC matches — checksum-
// corrupt entries are skipped rather than replayed as garbage. Log slots
// whose cells report stuck bits on write are retired and never reused.
//
// Crash injection is built in (FailAfter), and the tests drive
// write-crash-recover cycles against a reference model.
package txn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"

	"e2nvm/internal/nvm"
)

// Log states.
const (
	slotFree      = 0x00
	slotStaged    = 0x5a
	slotCommitted = 0xc3
)

// logMagic tags valid log headers so pre-use garbage in the reserved
// region can never be mistaken for a transaction.
var logMagic = [4]byte{'E', '2', 'T', 'X'}

const (
	hdrCRCOff = 15 // header checksum offset
	hdrFixed  = 19 // state + magic + count + id + header CRC
	entrySize = 8  // target address + image CRC
)

// crcTable is the Castagnoli polynomial table shared by header and image
// checksums.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// headerCRC computes the checksum over the header's stable bytes: magic,
// count, id and the entry table. The state byte is excluded so the
// staged → committed → free flips keep the checksum valid, and the CRC
// field itself is excluded.
func headerCRC(hdr []byte, count int) uint32 {
	crc := crc32.Checksum(hdr[1:hdrCRCOff], crcTable)
	return crc32.Update(crc, crcTable, hdr[hdrFixed:hdrFixed+entrySize*count])
}

// ErrCrashed is returned when an injected crash point fires; the device is
// left exactly as the crash left it and Recover must be run.
var ErrCrashed = errors.New("txn: injected crash")

// ErrTxTooLarge is returned when a transaction has more entries than one
// log slot can describe.
var ErrTxTooLarge = errors.New("txn: transaction exceeds log slot capacity")

// ErrAborted is returned when a transaction is used after Abort (or after
// a successful Commit recycled it).
var ErrAborted = errors.New("txn: transaction aborted")

// ErrLogFull is returned by Commit when every log slot is occupied.
var ErrLogFull = errors.New("txn: no free log slot")

// ErrBadConfig is returned by NewManager for an unusable log geometry.
var ErrBadConfig = errors.New("txn: invalid log config")

// Shipper observes every transaction at its commit point: the commit
// record is durable on this manager's device, the home segments are not
// yet written. It is the replication hook — a Put acked after Commit is
// exactly a Put whose entries a Shipper has seen. The callback runs with
// the manager's lock held, so it must not call back into the manager; the
// addrs and images slices are only valid for the duration of the call and
// must be copied if retained.
type Shipper func(id uint64, addrs []int, images [][]byte)

// Manager coordinates transactions over a device. The log occupies the
// device's tail segments; callers must not write those directly.
type Manager struct {
	dev      *nvm.Device
	logStart int // first log segment
	slotSegs int // segments per slot (1 header + maxEntries)
	maxEnt   int
	slots    int // number of log slots

	mu      sync.Mutex
	nextID  uint64
	shipper Shipper

	// badSlots marks log slots whose segments reported stuck bits on a
	// write; they are skipped by findFreeSlotLocked forever after.
	badSlots []bool
	retired  int

	// failAfter > 0 injects a crash after that many more device writes
	// issued through this manager; -1 means disabled.
	failAfter int
	writes    int

	txFree  []*Tx  // recycled transactions for Begin
	hdrBuf  []byte // Commit header scratch (one segment)
	slotBuf []byte // findFreeSlotLocked peek scratch (one segment)
}

// NewManager reserves logSlots transaction slots of maxEntries each at the
// top of the device's address space and returns the manager plus the
// number of data segments that remain usable [0, dataSegs).
func NewManager(dev *nvm.Device, logSlots, maxEntries int) (*Manager, int, error) {
	if logSlots <= 0 || maxEntries <= 0 {
		return nil, 0, fmt.Errorf("txn: logSlots %d / maxEntries %d must be positive: %w", logSlots, maxEntries, ErrBadConfig)
	}
	headerNeeds := hdrFixed + entrySize*maxEntries
	if headerNeeds > dev.SegmentSize() {
		return nil, 0, fmt.Errorf("txn: %d entries need a %d-byte header, segment is %d: %w",
			maxEntries, headerNeeds, dev.SegmentSize(), ErrBadConfig)
	}
	slotSegs := 1 + maxEntries
	logSegs := logSlots * slotSegs
	if logSegs >= dev.NumSegments() {
		return nil, 0, fmt.Errorf("txn: log (%d segments) does not fit device (%d): %w", logSegs, dev.NumSegments(), ErrBadConfig)
	}
	m := &Manager{
		dev:       dev,
		logStart:  dev.NumSegments() - logSegs,
		slotSegs:  slotSegs,
		maxEnt:    maxEntries,
		slots:     logSlots,
		badSlots:  make([]bool, logSlots),
		failAfter: -1,
	}
	return m, m.logStart, nil
}

// RetiredSlots returns how many log slots have been retired because their
// segments wore out.
func (m *Manager) RetiredSlots() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.retired
}

// retireSlotLocked permanently removes slot s from the free-slot rotation.
// Callers hold m.mu.
func (m *Manager) retireSlotLocked(s int) {
	if !m.badSlots[s] {
		m.badSlots[s] = true
		m.retired++
	}
}

// Format clears every log slot, discarding any pending transactions. Call
// it when creating a fresh store; use Recover instead to preserve and
// replay committed work after a crash.
func (m *Manager) Format() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	zero := make([]byte, m.dev.SegmentSize())
	for s := 0; s < m.slots; s++ {
		if err := m.dev.FillSegment(m.logStart+s*m.slotSegs, zero); err != nil {
			return err
		}
	}
	return nil
}

// hasMagic reports whether hdr carries a valid log header tag.
func hasMagic(hdr []byte) bool {
	return hdr[1] == logMagic[0] && hdr[2] == logMagic[1] && hdr[3] == logMagic[2] && hdr[4] == logMagic[3]
}

// SetShipper installs (or, with nil, removes) the commit-point observer.
// The swap synchronizes with in-flight commits: once SetShipper returns,
// no further calls to a previously installed shipper are in flight.
func (m *Manager) SetShipper(fn Shipper) {
	m.mu.Lock()
	m.shipper = fn
	m.mu.Unlock()
}

// FailAfter arms crash injection: the n-th subsequent device write issued
// by this manager fails with ErrCrashed, leaving the device in the state a
// real power failure would. Pass a negative n to disarm.
func (m *Manager) FailAfter(n int) {
	m.mu.Lock()
	m.failAfter = n
	m.writes = 0
	m.mu.Unlock()
}

// write issues one device write, honoring crash injection and surfacing
// worn-out cells (stuck bits left the stored data different from the
// intent) as an ErrWornOut-wrapped error. Callers hold m.mu.
func (m *Manager) write(addr int, data []byte) error {
	if m.failAfter >= 0 {
		m.writes++
		if m.writes > m.failAfter {
			return ErrCrashed
		}
	}
	res, err := m.dev.Write(addr, data)
	if err != nil {
		return err
	}
	if res.FaultyBits > 0 {
		return fmt.Errorf("txn: write left %d faulty bits at segment %d: %w", res.FaultyBits, addr, nvm.ErrWornOut)
	}
	return nil
}

// Tx is an open transaction. A Tx must not be used after a successful
// Commit: the manager recycles it for a later Begin (further calls fail
// with ErrAborted until then).
type Tx struct {
	m       *Manager
	id      uint64
	addrs   []int
	images  [][]byte
	staged  map[int]int // addr → index in addrs
	aborted bool
}

// Begin opens a transaction, reusing a recycled Tx when one is available
// so steady-state commit traffic does not allocate.
func (m *Manager) Begin() *Tx {
	m.mu.Lock()
	m.nextID++
	id := m.nextID
	var t *Tx
	if n := len(m.txFree); n > 0 {
		t = m.txFree[n-1]
		m.txFree = m.txFree[:n-1]
		t.id = id
		t.aborted = false
	} else {
		// lint:allow hotpathalloc — pool warm-up; recycled on every commit after the first
		t = &Tx{m: m, id: id, staged: make(map[int]int, m.maxEnt)}
	}
	m.mu.Unlock()
	return t
}

// releaseLocked resets a finished transaction and returns it to the reuse
// pool. The staged images keep their backing arrays (Write re-fills them
// with the append(buf[:0], ...) idiom). Callers hold m.mu.
func (m *Manager) releaseLocked(t *Tx) {
	clear(t.staged)
	t.addrs = t.addrs[:0]
	t.images = t.images[:0]
	t.aborted = true               // poison until Begin hands it out again
	m.txFree = append(m.txFree, t) // lint:allow hotpathalloc — bounded by the number of concurrent transactions
}

// Write stages a full-segment image for addr. Staging the same address
// twice keeps the latest image. The data is copied.
func (t *Tx) Write(addr int, data []byte) error {
	if t.aborted {
		return fmt.Errorf("txn: write on aborted transaction: %w", ErrAborted)
	}
	if addr < 0 || addr >= t.m.logStart {
		return fmt.Errorf("txn: address %d outside data region [0,%d): %w", addr, t.m.logStart, nvm.ErrBadAddress)
	}
	if len(data) != t.m.dev.SegmentSize() {
		return fmt.Errorf("txn: image of %d bytes, want %d: %w", len(data), t.m.dev.SegmentSize(), nvm.ErrSegmentSize)
	}
	if i, ok := t.staged[addr]; ok {
		t.images[i] = append(t.images[i][:0], data...)
		return nil
	}
	if len(t.addrs) >= t.m.maxEnt {
		return ErrTxTooLarge
	}
	t.staged[addr] = len(t.addrs)
	t.addrs = append(t.addrs, addr) // lint:allow hotpathalloc — capacity bounded by maxEntries, reused across commits
	if len(t.images) < cap(t.images) {
		// Reclaim the buffer a previous incarnation left in the slice's
		// spare capacity.
		t.images = t.images[:len(t.images)+1]
		last := len(t.images) - 1
		t.images[last] = append(t.images[last][:0], data...)
	} else {
		// lint:allow hotpathalloc — image buffer warm-up; reused across commits afterwards
		t.images = append(t.images, append([]byte(nil), data...))
	}
	return nil
}

// Read returns the transaction's view of addr: the staged image if one
// exists, else the device content.
func (t *Tx) Read(addr int) ([]byte, error) {
	if i, ok := t.staged[addr]; ok {
		out := append([]byte(nil), t.images[i]...)
		return out, nil
	}
	return t.m.dev.Read(addr)
}

// Abort discards the transaction (nothing was persisted before Commit).
func (t *Tx) Abort() { t.aborted = true }

// Commit persists the transaction: stage → commit record → apply →
// invalidate. If an injected crash interrupts it, the device state is
// recoverable by Recover, which either completes the transaction (commit
// record persisted) or discards it entirely.
//
// A log slot whose segments report stuck bits during staging is retired
// and the transaction moves to another slot; when the worn segment is one
// of the transaction's home locations, the slot is invalidated (so
// recovery will not replay into dead cells) and the ErrWornOut-wrapped
// error is surfaced for the caller to place the data elsewhere.
func (t *Tx) Commit() error {
	if t.aborted {
		return fmt.Errorf("txn: commit on aborted transaction: %w", ErrAborted)
	}
	m := t.m
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(t.addrs) == 0 {
		m.releaseLocked(t)
		return nil
	}

	// 1+2. Stage the images and persist the commit record, retrying in a
	// fresh slot when the current one's cells are worn out. Finite slots
	// bound the loop: every worn slot is retired, and findFreeSlotLocked
	// fails with ErrLogFull once none remain.
	var base int
	for {
		slot, err := m.findFreeSlotLocked()
		if err != nil {
			return err
		}
		base = m.logStart + slot*m.slotSegs
		serr := m.stageSlotLocked(base, t)
		if serr == nil {
			break
		}
		if !errors.Is(serr, nvm.ErrWornOut) {
			return serr
		}
		m.retireSlotLocked(slot)
	}
	// The commit record is durable: this is the acknowledgement boundary,
	// so ship the entries to followers before the home applies (a crash
	// between here and the applies is recovered from the log, and the
	// shipped copy has already left the building).
	if m.shipper != nil {
		// Nil on unreplicated stores, so the single-store hot path never
		// takes this branch; a replicated store's shipper buffers the
		// entry for its followers, which inherently allocates.
		// lint:allow hotpathalloc
		m.shipper(t.id, t.addrs, t.images)
	}
	hdr := m.hdrBuf
	// 3. Apply to home locations.
	for i, a := range t.addrs {
		if aerr := m.write(a, t.images[i]); aerr != nil {
			if errors.Is(aerr, nvm.ErrWornOut) {
				hdr[0] = slotFree
				if ierr := m.write(base, hdr); ierr != nil {
					return fmt.Errorf("txn: slot invalidation after worn apply failed (%v): %w", ierr, aerr)
				}
			}
			return aerr
		}
	}
	// 4. Invalidate the slot.
	hdr[0] = slotFree
	if err := m.write(base, hdr); err != nil {
		return err
	}
	m.releaseLocked(t)
	return nil
}

// stageSlotLocked writes the transaction's images into the slot at base and
// persists its header: first in the staged state (addresses, image CRCs,
// count, header CRC), then a second small write flips the state byte to
// committed — the atomic commit point. On success m.hdrBuf holds the
// committed header. Callers hold m.mu.
func (m *Manager) stageSlotLocked(base int, t *Tx) error {
	for i, img := range t.images {
		if err := m.write(base+1+i, img); err != nil {
			return err
		}
	}
	if len(m.hdrBuf) != m.dev.SegmentSize() {
		m.hdrBuf = make([]byte, m.dev.SegmentSize()) // lint:allow hotpathalloc — one-time scratch sized at first commit
	}
	hdr := m.hdrBuf
	clear(hdr)
	hdr[0] = slotStaged
	copy(hdr[1:5], logMagic[:])
	binary.LittleEndian.PutUint16(hdr[5:], uint16(len(t.addrs)))
	binary.LittleEndian.PutUint64(hdr[7:], t.id)
	for i, a := range t.addrs {
		off := hdrFixed + entrySize*i
		binary.LittleEndian.PutUint32(hdr[off:], uint32(a))
		binary.LittleEndian.PutUint32(hdr[off+4:], crc32.Checksum(t.images[i], crcTable))
	}
	binary.LittleEndian.PutUint32(hdr[hdrCRCOff:], headerCRC(hdr, len(t.addrs)))
	if err := m.write(base, hdr); err != nil {
		return err
	}
	hdr[0] = slotCommitted
	return m.write(base, hdr)
}

func (m *Manager) findFreeSlotLocked() (int, error) {
	if len(m.slotBuf) != m.dev.SegmentSize() {
		m.slotBuf = make([]byte, m.dev.SegmentSize()) // lint:allow hotpathalloc — one-time scratch sized at first commit
	}
	for s := 0; s < m.slots; s++ {
		if m.badSlots[s] {
			continue
		}
		if err := m.dev.PeekInto(m.logStart+s*m.slotSegs, m.slotBuf); err != nil {
			return 0, err
		}
		if m.slotBuf[0] == slotFree || !hasMagic(m.slotBuf) {
			return s, nil
		}
	}
	return 0, ErrLogFull
}

// Recover scans the log and finishes crash recovery: committed slots are
// re-applied (idempotent) and freed; staged (torn) slots are discarded.
// It returns the number of transactions replayed and discarded.
//
// Wear corruption is handled conservatively: a committed header whose
// checksum does not match is discarded rather than trusted, an entry whose
// staged image fails its CRC is skipped rather than replayed as garbage,
// and an entry whose home segment refuses the write is skipped (the data
// is lost, but nothing wrong is written). A slot whose own header cells
// are worn is retired from the rotation.
func (m *Manager) Recover() (replayed, discarded int, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.failAfter = -1 // recovery itself is not crash-injected
	for s := 0; s < m.slots; s++ {
		base := m.logStart + s*m.slotSegs
		hdr, err := m.dev.Peek(base)
		if err != nil {
			return replayed, discarded, err
		}
		if !hasMagic(hdr) {
			// Pre-use garbage in the reserved region: clear it.
			if err := m.dev.FillSegment(base, make([]byte, m.dev.SegmentSize())); err != nil {
				return replayed, discarded, err
			}
			continue
		}
		switch hdr[0] {
		case slotFree:
			continue
		case slotCommitted:
			n := int(binary.LittleEndian.Uint16(hdr[5:]))
			if n > m.maxEnt || binary.LittleEndian.Uint32(hdr[hdrCRCOff:]) != headerCRC(hdr, n) {
				// The commit record itself is checksum-corrupt: its entry
				// table cannot be trusted, so the transaction is discarded.
				discarded++
				break
			}
			applied := 0
			for i := 0; i < n; i++ {
				off := hdrFixed + entrySize*i
				addr := int(binary.LittleEndian.Uint32(hdr[off:]))
				img, err := m.dev.Peek(base + 1 + i)
				if err != nil {
					return replayed, discarded, err
				}
				if crc32.Checksum(img, crcTable) != binary.LittleEndian.Uint32(hdr[off+4:]) {
					continue // checksum-corrupt staged image: skip the entry
				}
				if werr := m.write(addr, img); werr != nil {
					if errors.Is(werr, nvm.ErrWornOut) {
						continue // home segment is dead: the entry is lost
					}
					return replayed, discarded, werr
				}
				applied++
			}
			if applied > 0 {
				replayed++
			} else {
				discarded++
			}
		default: // staged or torn: discard
			discarded++
		}
		clearBuf := make([]byte, m.dev.SegmentSize())
		copy(clearBuf, hdr)
		clearBuf[0] = slotFree
		if werr := m.write(base, clearBuf); werr != nil {
			if errors.Is(werr, nvm.ErrWornOut) {
				// The slot's own header cells are worn; take it out of the
				// rotation instead of failing recovery.
				m.retireSlotLocked(s)
				continue
			}
			return replayed, discarded, werr
		}
	}
	return replayed, discarded, nil
}

// ApplyShipped applies a shipped transaction on a follower device with the
// full crash-atomic stage → commit → apply → invalidate cycle, preserving
// the leader's transaction id in the follower's log so the two redo
// streams stay correlated. The images are copied; the caller's slices are
// not retained. It is the follower-side entry point of log shipping: an
// entry either lands atomically or the follower's own Recover discards it.
func (m *Manager) ApplyShipped(id uint64, addrs []int, images [][]byte) error {
	if len(addrs) != len(images) {
		return fmt.Errorf("txn: shipped entry has %d addrs but %d images: %w", len(addrs), len(images), ErrBadConfig)
	}
	t := m.Begin()
	for i, addr := range addrs {
		if err := t.Write(addr, images[i]); err != nil {
			t.Abort()
			return err
		}
	}
	t.id = id
	return t.Commit()
}

// IterateCommitted walks the log's committed slots and yields each
// recoverable transaction — the same headers and CRC-verified images
// Recover would replay — without modifying the log. It is the log-shipping
// iterator: after a leader restart, the committed-but-unapplied tail is
// exactly what must be re-shipped to followers before new traffic flows
// (followers dedup by transaction id and record seq numbers, so re-
// shipping an already-applied entry is safe). Checksum-corrupt headers and
// images are skipped, mirroring Recover. The yielded slices are only valid
// during the callback; return false to stop early.
func (m *Manager) IterateCommitted(fn func(id uint64, addrs []int, images [][]byte) bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for s := 0; s < m.slots; s++ {
		base := m.logStart + s*m.slotSegs
		hdr, err := m.dev.Peek(base)
		if err != nil {
			return err
		}
		if !hasMagic(hdr) || hdr[0] != slotCommitted {
			continue
		}
		n := int(binary.LittleEndian.Uint16(hdr[5:]))
		if n > m.maxEnt || binary.LittleEndian.Uint32(hdr[hdrCRCOff:]) != headerCRC(hdr, n) {
			continue // corrupt commit record: Recover will discard it
		}
		id := binary.LittleEndian.Uint64(hdr[7:])
		addrs := make([]int, 0, n)
		images := make([][]byte, 0, n)
		for i := 0; i < n; i++ {
			off := hdrFixed + entrySize*i
			img, err := m.dev.Peek(base + 1 + i)
			if err != nil {
				return err
			}
			if crc32.Checksum(img, crcTable) != binary.LittleEndian.Uint32(hdr[off+4:]) {
				continue // corrupt staged image: Recover will skip it too
			}
			addrs = append(addrs, int(binary.LittleEndian.Uint32(hdr[off:])))
			images = append(images, img)
		}
		if len(addrs) == 0 {
			continue
		}
		if !fn(id, addrs, images) {
			return nil
		}
	}
	return nil
}
