package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"syscall"
	"time"

	"e2nvm"
)

// kv is the part of the facade a run drives. *e2nvm.Store satisfies it;
// tests substitute a store that returns a wrong value or an error to
// check that both are counted.
type kv interface {
	Put(key uint64, value []byte) error
	GetInto(key uint64, dst []byte) ([]byte, bool, error)
	Len() int
}

// clock reads nanoseconds since the run's base instant.
type clock func() int64

func wallClock() clock {
	base := time.Now()
	return func() int64 { return int64(time.Since(base)) }
}

// cpuNow is the process's user+system CPU time so far, in nanoseconds.
func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSMiB is ru_maxrss (KiB on Linux) in MiB. The peak falls inside
// training, between the live heap and twice it depending on where the
// collector's cycle stood, so it is reported but carries no bound.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// settledRSSMiB is the resident set once a forced collection has handed
// every free span back to the operating system: what the open, loaded
// store holds (plus the benchmark's tape and latency arrays, which are the
// same on every commit). Unlike the peak it does not depend on the
// collector's phase.
func settledRSSMiB() (float64, error) {
	debug.FreeOSMemory()
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	var size, resident int64
	if _, err := fmt.Sscan(string(b), &size, &resident); err != nil {
		return 0, fmt.Errorf("/proc/self/statm: %w", err)
	}
	return float64(resident*int64(os.Getpagesize())) / (1 << 20), nil
}

// client is one load-generating goroutine's state: its tape, the shadow
// of what it has written, and what it measured.
type client struct {
	ops    []op
	values [][]byte
	// shadow[key] is the value index of the last acknowledged Put, the
	// only value a later read of that key may return.
	shadow []int32
	buf    []byte

	// per op, parallel to ops: latency charged to the op (closed loop:
	// call start to return; open loop: due time to return), the call's
	// own duration, and how late the generator issued it
	lat, svc, late []int64

	failed int    // errors, wrong values, missing values
	tr     *trace // nil unless this is the traced facade pass
	opBase int32  // added to a tape index to make the span's op id unique across clients
}

// newShadow is a shadow in which no key has been written yet.
func newShadow(keys int) []int32 {
	shadow := make([]int32, keys)
	for i := range shadow {
		shadow[i] = -1
	}
	return shadow
}

func newClient(ops []op, values [][]byte, shadow []int32) *client {
	n := len(ops)
	return &client{
		ops: ops, values: values, shadow: shadow,
		buf: make([]byte, 0, 512),
		lat: make([]int64, n), svc: make([]int64, n), late: make([]int64, n),
	}
}

// do executes op i against st, timing only the facade call and checking
// the outcome after the clock has been read. due is when the op was
// scheduled; a closed loop passes the issue time itself.
func (c *client) do(st kv, now clock, i int, due int64) {
	o := c.ops[i]
	var (
		v     []byte
		found bool
		err   error
	)
	t0 := now()
	if o.kind == opPut {
		err = st.Put(uint64(o.key), c.values[o.val])
	} else {
		v, found, err = st.GetInto(uint64(o.key), c.buf[:0])
	}
	t1 := now()
	c.lat[i], c.svc[i], c.late[i] = t1-due, t1-t0, t0-due
	if c.tr != nil {
		opID := c.opBase + int32(i)
		root := c.tr.add(spanOp, -1, opID, due, t1)
		name := spanFacadePut
		if o.kind == opGet {
			name = spanFacadeGet
		}
		c.tr.add(name, root, opID, t0, t1)
	}
	switch {
	case err != nil:
		c.failed++
	case o.kind == opPut:
		c.shadow[o.key] = int32(o.val)
	default:
		c.check(o.key, v, found)
	}
}

// check compares a read against the shadow.
func (c *client) check(key uint32, v []byte, found bool) {
	want := c.shadow[key]
	if want < 0 {
		if found {
			c.failed++
		}
		return
	}
	if !found || !bytes.Equal(v, c.values[want]) {
		c.failed++
	}
}

// closedLoop runs ops [lo, hi): each op is issued when the previous one
// returns.
func (c *client) closedLoop(st kv, now clock, lo, hi int) {
	for i := lo; i < hi; i++ {
		c.do(st, now, i, now())
	}
}

// schedule is an open loop's timetable: op i is due at start + i×interval
// whether or not the store has kept up.
type schedule struct {
	start    int64
	interval float64
	// idle is the time spent waiting for due times: generator idling, not
	// store work. stalls counts, and stalled sums, the waits during which
	// the generator itself was taken off the CPU.
	idle, stalled int64
	stalls        int
}

// genStall is the gap between two clock reads of the idle wait beyond
// which the generator was evidently not running: the wait loop does
// nothing but read the clock, which takes tens of nanoseconds.
const genStall = 50_000

// openLoop runs ops [lo, hi) on the schedule. do charges each op's
// latency from its due time, so an op that stalls inside the store is
// also paid for by the ops queued behind it. A stall of the generator
// while it idles between ops is different: no call was in flight, and
// arrivals from an independent client would have been served as they
// came. The schedule is moved forward by such a stall and the stall is
// counted, so that the sandbox descheduling the benchmark's thread does
// not read as queueing in the store.
func (c *client) openLoop(st kv, now clock, lo, hi int, sc *schedule) {
	for i := lo; i < hi; i++ {
		due := sc.start + int64(float64(i)*sc.interval)
		t := now()
		if t < due {
			t0 := t
			for t < due {
				prev := t
				t = now()
				if gap := t - prev; gap > genStall {
					sc.start += gap
					due += gap
					sc.stalled += gap
					sc.stalls++
				}
			}
			sc.idle += t - t0
		}
		c.do(st, now, i, due)
	}
}

// phase is what the timed part of a run measured, per slice.
type phase struct {
	wall, cpu []int64 // per slice; cpu excludes open-loop idling
	issued    int     // ops actually executed (short of the tape only on a deadline abort)
	// open loop: for how long in total the generator was taken off the CPU
	// while idling (see openLoop)
	genStalled int64
}

// runTimed drives every client through its timed ops in numSlices equal
// slices. Closed-loop clients meet at a barrier between slices so a
// slice's wall and CPU time cover the same ops on every client; the open
// loop keeps one schedule across slices.
func runTimed(st kv, sp spec, clients []*client, warm int, deadline time.Duration) phase {
	now := wallClock()
	per := (len(clients[0].ops) - warm) / numSlices
	ph := phase{wall: make([]int64, 0, numSlices), cpu: make([]int64, 0, numSlices)}
	start := now()
	var sc schedule
	if sp.openRate > 0 {
		// one schedule for the whole phase: the first timed op is due at
		// start, and a slice boundary does not reset the backlog
		sc.interval = 1e9 / sp.openRate
		sc.start = start - int64(float64(warm)*sc.interval)
	}
	for s := 0; s < numSlices; s++ {
		lo, hi := warm+s*per, warm+(s+1)*per
		if time.Duration(now()-start) > deadline {
			break // the remaining ops are reported as not issued
		}
		t0, cpu0 := now(), cpuNow()
		idle0 := sc.idle
		if sp.openRate > 0 {
			clients[0].openLoop(st, now, lo, hi, &sc)
		} else {
			var wg sync.WaitGroup
			for _, c := range clients {
				wg.Add(1)
				go func(c *client) {
					defer wg.Done()
					c.closedLoop(st, now, lo, hi)
				}(c)
			}
			wg.Wait()
		}
		ph.wall = append(ph.wall, now()-t0)
		ph.cpu = append(ph.cpu, cpuNow()-cpu0-(sc.idle-idle0))
		ph.issued += per * len(clients)
	}
	ph.genStalled = sc.stalled
	return ph
}

// runWarm executes every client's warm-up ops, closed loop.
func runWarm(st kv, clients []*client, warm int) {
	now := wallClock()
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.closedLoop(st, now, 0, warm)
		}(c)
	}
	wg.Wait()
}

// preload writes every key once and seeds the shadow.
func preload(st kv, t *tape, shadow []int32) (failed int) {
	for _, o := range t.preload {
		if err := st.Put(uint64(o.key), t.values[o.val]); err != nil {
			failed++
			continue
		}
		shadow[o.key] = int32(o.val)
	}
	return failed
}

// The end-of-run sweep reads every key back. One pass verifies; a tape
// without reads takes readBackPasses of them, because there the sweep is
// also the only Get sample the run has (see readBack).
const readBackPasses = 200

func (sp spec) sweepPasses() int {
	if sp.writeOnly() {
		return readBackPasses
	}
	return 1
}

// sweep reads every key back passes times, checks every result against
// the shadow after the clock has been read, checks Len against the live
// keys, and returns each call's latency in nanoseconds, by pass and key.
func sweep(st kv, now clock, t *tape, shadow []int32, passes int) (lat [][]float64, attempted, failed int) {
	c := &client{values: t.values, shadow: shadow, buf: make([]byte, 0, 512)}
	lat = make([][]float64, passes)
	for p := range lat {
		lat[p] = make([]float64, len(shadow))
		for key := range shadow {
			t0 := now()
			v, found, err := st.GetInto(uint64(key), c.buf[:0])
			t1 := now()
			lat[p][key] = float64(t1 - t0)
			if err != nil {
				c.failed++
				continue
			}
			c.check(uint32(key), v, found)
		}
	}
	attempted = passes*len(shadow) + 1
	live := 0
	for _, s := range shadow {
		if s >= 0 {
			live++
		}
	}
	if st.Len() != live {
		c.failed++
	}
	return lat, attempted, c.failed
}

// readBack reduces the sweep of a tape without reads to one latency per
// key: the median over the passes. An uncached Get takes ~100 ns, and on a
// shared host the slowest 1 % of any sample of such calls, taken one by
// one, in groups or in whole passes, is interrupts and cache refills, and
// doubles from one run to the next. The per-key median drops all of that;
// what varies across keys is the store's own cost (depth in the index,
// where the segment lies), so the p99 over keys is a tail that repeats.
func readBack(lat [][]float64) (perKey []float64) {
	if len(lat) == 0 {
		return nil
	}
	perKey = make([]float64, len(lat[0]))
	col := make([]float64, len(lat))
	for k := range perKey {
		for p := range lat {
			col[p] = lat[p][k]
		}
		perKey[k] = median(col)
	}
	return perKey
}

// measurement is one untraced run's raw material.
type measurement struct {
	setupS, openS, preloadS float64
	rssMiB                  float64 // settled resident set with the store still open (untraced run only)
	ph                      phase
	clients                 []*client
	warm                    int
	sweepLat                [][]float64 // GetInto latency by sweep pass and key, ns
	attempted, failed       int
	puts                    int // acknowledged timed Puts
	m                       e2nvm.Metrics
	shardWrites             []uint64
	segWrites               []uint64
	sweepReads              uint64 // device reads the sweep cost
	mallocs, allocBytes     uint64 // heap allocations during the timed phase (traced run only)
}

// drive runs the preload, warm-up, timed phase and sweep of tape t
// against st, which the caller has just opened.
func drive(st kv, sp spec, t *tape, g geometry, reset func(), deadline time.Duration, tr *trace) measurement {
	var ms measurement
	shadow := newShadow(g.keys)
	t0 := time.Now()
	ms.failed += preload(st, t, shadow)
	ms.preloadS = time.Since(t0).Seconds()
	ms.attempted += len(t.preload)

	ms.warm = t.warm
	for _, ops := range t.clients {
		// clients own disjoint keys, so they can share one shadow slice
		ms.clients = append(ms.clients, newClient(ops, t.values, shadow))
	}
	runWarm(st, ms.clients, t.warm)
	reset()
	runtime.GC()
	ms.setupS = time.Since(t0).Seconds()

	if tr != nil {
		// a recorder per client: they run concurrently
		for ci, c := range ms.clients {
			c.tr = newTrace(tr.now, 2*(len(c.ops)-t.warm))
			c.opBase = int32(ci * len(c.ops))
		}
	}
	ms.ph = runTimed(st, sp, ms.clients, t.warm, deadline)
	for _, c := range ms.clients {
		if c.tr != nil {
			tr.merge(c.tr)
			c.tr = nil
		}
		ms.attempted += len(c.ops)
		ms.failed += c.failed
	}
	// ops the deadline kept from being issued failed their users too
	ms.failed += t.timedOps() - ms.ph.issued
	return ms
}

// lagWait blocks until every follower has applied what it was shipped,
// so device counters read afterwards include the replicas' share.
func lagWait(st *e2nvm.Store) {
	for {
		lag := uint64(0)
		for _, sr := range st.Replication() {
			for _, r := range sr.Replicas {
				lag += r.Lag
			}
		}
		if lag == 0 {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// measure opens the workload's store and runs one untraced measurement.
func measure(sp spec, g geometry, seed int64, t *tape, deadline time.Duration) (measurement, error) {
	t0 := time.Now()
	st, err := e2nvm.Open(sp.config(g, seed, t))
	if err != nil {
		return measurement{}, fmt.Errorf("open %s: %w", sp.name, err)
	}
	defer st.Close()
	openS := time.Since(t0).Seconds()

	ms := drive(st, sp, t, g, func() { lagWait(st); st.ResetMetrics() }, deadline, nil)
	ms.openS = openS
	ms.setupS += openS

	finish(st, &ms, t, sp.sweepPasses())
	ms.rssMiB, err = settledRSSMiB()
	if err != nil {
		return measurement{}, err
	}
	return ms, nil
}

// finish reads the store's counters once the followers have caught up,
// then runs the read-back sweep.
func finish(st *e2nvm.Store, ms *measurement, t *tape, passes int) {
	lagWait(st)
	ms.m = st.Metrics()
	ms.segWrites = st.SegmentWrites()
	for _, sm := range st.ShardMetrics() {
		ms.shardWrites = append(ms.shardWrites, sm.Writes)
	}
	ms.puts = countPuts(ms.clients, t.warm, ms.ph.issued/len(ms.clients))

	var att, bad int
	ms.sweepLat, att, bad = sweep(st, wallClock(), t, ms.clients[0].shadow, passes)
	ms.sweepReads = st.Metrics().Reads - ms.m.Reads
	ms.attempted += att
	ms.failed += bad
}

// countPuts counts the Puts among each client's first n timed ops.
func countPuts(clients []*client, warm, n int) int {
	puts := 0
	for _, c := range clients {
		for _, o := range c.ops[warm : warm+n] {
			if o.kind == opPut {
				puts++
			}
		}
	}
	return puts
}
