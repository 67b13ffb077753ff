package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"time"

	"e2nvm"
	"e2nvm/internal/core"
	"e2nvm/internal/dap"
	"e2nvm/internal/hotcache"
	"e2nvm/internal/kvstore"
	"e2nvm/internal/nvm"
	"e2nvm/internal/padding"
	"e2nvm/internal/replica"
	"e2nvm/internal/shard"
	"e2nvm/internal/stats"
)

// The traced run. End-to-end numbers come from an untraced run; this one
// attributes time and counts to layers. Until the program records spans
// itself, the benchmark gets them by calling each layer's public
// functions in the order the store does (replay.go) and by timing the
// store at three depths on the same tape: the facade, kvstore.Store
// directly, and for replicated workloads replica.Cluster directly.

// flatOps is a workload's tape flattened for a single-threaded pass over
// one shard's worth of layers: clients interleaved, keys of other shards
// dropped.
type flatOps struct {
	pre, warm, timed []op
}

func flatten(t *tape, shards int) flatOps {
	mine := func(o op) bool {
		return shards == 1 || shard.Mix64(uint64(o.key))%uint64(shards) == 0
	}
	var f flatOps
	for _, o := range t.preload {
		if mine(o) {
			f.pre = append(f.pre, o)
		}
	}
	weave := func(lo, hi int, dst *[]op) {
		for i := lo; i < hi; i++ {
			for _, c := range t.clients {
				if mine(c[i]) {
					*dst = append(*dst, c[i])
				}
			}
		}
	}
	weave(0, t.warm, &f.warm)
	weave(t.warm, len(t.clients[0]), &f.timed)
	return f
}

// target is one depth of the stack driven by a flat pass.
type target interface {
	put(opID int32, key uint64, value []byte) error
	get(opID int32, key uint64, dst []byte) ([]byte, bool, error)
	// reset forgets what the preload and warm-up measured.
	reset()
}

// runFlat drives a target through preload, warm-up and the timed ops,
// checking every read against a shadow. It returns ops attempted and
// failed.
func runFlat(x target, f flatOps, t *tape, keys int, between func()) (attempted, failed int) {
	c := &client{values: t.values, shadow: newShadow(keys), buf: make([]byte, 0, 512)}
	run := func(ops []op) {
		for i, o := range ops {
			if o.kind == opPut {
				if err := x.put(int32(i), uint64(o.key), t.values[o.val]); err != nil {
					c.failed++
					continue
				}
				c.shadow[o.key] = int32(o.val)
			} else {
				v, found, err := x.get(int32(i), uint64(o.key), c.buf[:0])
				if err != nil {
					c.failed++
					continue
				}
				c.check(o.key, v, found)
			}
			if between != nil && i&255 == 255 {
				between()
			}
		}
	}
	run(f.pre)
	run(f.warm)
	x.reset()
	run(f.timed)
	return len(f.pre) + len(f.warm) + len(f.timed), c.failed
}

func (s *stack) reset() {
	s.tr.spans = s.tr.spans[:0]
	s.puts, s.gets, s.predicts, s.padBytes = 0, 0, 0, 0
	s.commits, s.logFlips, s.fallbacks, s.steered = 0, 0, 0, 0
}

// timed accumulates direct-call timings of one function.
type timed struct {
	ns    int64
	calls int
}

func (t *timed) mean() float64 {
	if t.calls == 0 {
		return 0
	}
	return float64(t.ns) / float64(t.calls)
}

// directStore drives kvstore.Store itself, with the facade's cache
// protocol around it when the workload caches (so KeyTemp sees the same
// hotness), timing only the store calls.
type directStore struct {
	st         *kvstore.Store
	cache      *hotcache.Cache
	now        clock
	putT, getT timed
}

func (d *directStore) put(_ int32, key uint64, value []byte) error {
	t0 := d.now()
	err := d.st.Put(key, value)
	d.putT.ns += d.now() - t0
	d.putT.calls++
	if d.cache != nil {
		d.cache.Invalidate(key)
	}
	return err
}

func (d *directStore) get(_ int32, key uint64, dst []byte) ([]byte, bool, error) {
	var token uint64
	if d.cache != nil {
		if v, ok := d.cache.GetInto(key, dst); ok {
			return v, true, nil
		}
		token = d.cache.BeginFill(key)
	}
	t0 := d.now()
	v, ok, err := d.st.GetInto(key, dst)
	d.getT.ns += d.now() - t0
	d.getT.calls++
	if d.cache != nil && ok && err == nil {
		d.cache.CompleteFill(key, v, token)
	}
	return v, ok, err
}

func (d *directStore) reset() { d.putT, d.getT = timed{}, timed{} }

// directCluster drives replica.Cluster itself.
type directCluster struct {
	c      *replica.Cluster
	now    clock
	putT   timed
	maxLag uint64
}

func (d *directCluster) put(_ int32, key uint64, value []byte) error {
	t0 := d.now()
	err := d.c.Put(key, value)
	d.putT.ns += d.now() - t0
	d.putT.calls++
	return err
}

func (d *directCluster) get(_ int32, key uint64, dst []byte) ([]byte, bool, error) {
	return d.c.GetInto(key, dst)
}

func (d *directCluster) reset() { d.putT, d.maxLag = timed{}, 0 }

// lag is the worst follower backlog right now.
func (d *directCluster) lag() uint64 {
	worst := uint64(0)
	for _, gs := range d.c.Status() {
		for _, r := range gs.Replicas {
			if r.Lag > worst {
				worst = r.Lag
			}
		}
	}
	return worst
}

func (d *directCluster) noteLag() {
	if l := d.lag(); l > d.maxLag {
		d.maxLag = l
	}
}

// newDevice builds a device holding images, as the facade builds a
// shard's.
func newDevice(images [][]byte, emulate bool) (*nvm.Device, error) {
	cfg := nvm.DefaultConfig(len(images[0]), len(images))
	cfg.EmulateLatency = emulate
	dev, err := nvm.NewDevice(cfg)
	if err != nil {
		return nil, err
	}
	for a, img := range images {
		if err := dev.FillSegment(a, img); err != nil {
			return nil, err
		}
	}
	return dev, nil
}

// zone returns shard i's slice of the seed images, split as the facade
// splits NumSegments across shards.
func zone(images [][]byte, shards, i int) [][]byte {
	per, rem := len(images)/shards, len(images)%shards
	lo := 0
	for s := 0; s < i; s++ {
		lo += per
		if s < rem {
			lo++
		}
	}
	hi := lo + per
	if i < rem {
		hi++
	}
	return images[lo:hi]
}

// trainModel trains shard 0's model exactly as e2nvm.Open would and
// returns it serialized, with the training time.
func trainModel(sp spec, g geometry, seed int64, t *tape) ([]byte, float64, error) {
	z := zone(t.seedImages, sp.shards, 0)
	data := make([][]float64, len(z))
	for i, img := range z {
		data[i] = core.BytesToBits(img)
	}
	t0 := time.Now()
	model, err := core.Train(data, core.Config{
		InputBits:   g.segSize * 8,
		K:           g.clusters,
		LatentDim:   10, // the facade's default
		HiddenDim:   g.hidden,
		Epochs:      g.epochs,
		Seed:        seed,
		PadExplicit: true,
		PadLocation: padding.End,
		PadType:     padding.InputBased,
	})
	if err != nil {
		return nil, 0, err
	}
	trainS := time.Since(t0).Seconds()
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		return nil, 0, err
	}
	return buf.Bytes(), trainS, nil
}

func loadModel(b []byte) (*core.Model, error) { return core.Load(bytes.NewReader(b)) }

// facadePass opens the workload's store around the trained model and
// drives the traced tape through the facade.
func facadePass(sp spec, g geometry, seed int64, t *tape, model []byte, tr *trace, deadline time.Duration) (measurement, error) {
	st, err := e2nvm.OpenWithModel(sp.config(g, seed, t), bytes.NewReader(model))
	if err != nil {
		return measurement{}, err
	}
	defer st.Close()
	var ms0, ms1 runtime.MemStats
	ms := drive(st, sp, t, g, func() {
		lagWait(st)
		st.ResetMetrics()
		runtime.ReadMemStats(&ms0)
	}, deadline, tr)
	runtime.ReadMemStats(&ms1)
	ms.mallocs, ms.allocBytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
	finish(st, &ms, t, sp.sweepPasses())
	return ms, nil
}

// meanSvc is the mean duration of the timed facade calls of one kind.
func meanSvc(ms measurement, kind opKind) float64 {
	var tm timed
	for _, c := range ms.clients {
		for i := ms.warm; i < len(c.ops); i++ {
			if c.ops[i].kind == kind {
				tm.ns += c.svc[i]
				tm.calls++
			}
		}
	}
	return tm.mean()
}

// microMean times n back-to-back calls of f and returns the mean, for
// functions too short to bracket with clock reads one call at a time.
func microMean(n int, f func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(t0)) / float64(n)
}

var sink int // keeps micro-loop results alive

// traced runs the layer attribution of one workload on tape t (a quarter
// of the untraced length) and returns the per-layer metrics.
func traced(sp spec, g geometry, seed int64, t *tape, deadline time.Duration, traceOut string) ([]Metric, int, int, error) {
	out := newMetricSet(perLayerDefs)
	attempted, failed := 0, 0
	now := wallClock()

	model, trainS, err := trainModel(sp, g, seed, t)
	if err != nil {
		return nil, 0, 0, err
	}
	out.set("core.train_s", trainS)

	// facade, untraced then traced: same model, same tape, so the only
	// difference between the two passes is the span recording
	ref, err := facadePass(sp, g, seed, t, model, nil, deadline)
	if err != nil {
		return nil, 0, 0, err
	}
	tr := newTrace(now, 2*t.timedOps()+16)
	trc, err := facadePass(sp, g, seed, t, model, tr, deadline)
	if err != nil {
		return nil, 0, 0, err
	}
	attempted += ref.attempted + trc.attempted
	failed += ref.failed + trc.failed
	facadeSpans := tr.spans
	ft := selfTimes(facadeSpans)

	timer := microMean(1<<18, func(int) { sink += int(now() & 1) })
	out.set("loadgen.timer_ns", timer)
	if sp.openRate > 0 {
		var late []float64
		for _, c := range ref.clients {
			for _, l := range c.late[ref.warm:] {
				late = append(late, float64(l))
			}
		}
		sort.Float64s(late)
		if v, ok := percentile(late, 0.99); ok {
			out.set("loadgen.late_p99_us", v/1e3)
		}
		// the share of the phase by which openLoop moved the schedule
		out.set("loadgen.stalled_frac", float64(ref.ph.genStalled)/float64(phaseWall(ref)))
	}
	spanMean := func(lt layerTime) float64 {
		if lt.calls == 0 {
			return 0
		}
		// a span's two clock reads bracket the call plus one read
		return max(float64(lt.total)/float64(lt.calls)-timer, 0)
	}
	out.set("facade.put_ns", spanMean(ft[spanFacadePut]))
	timedOps := float64(ref.ph.issued)
	gets := timedOps - float64(ref.puts)
	if sp.writeOnly() {
		out.set("facade.get_ns", max(stats.Mean(readBack(trc.sweepLat))-timer, 0))
	} else {
		out.set("facade.get_ns", spanMean(ft[spanFacadeGet]))
	}
	out.set("facade.allocs_per_op", float64(ref.mallocs)/timedOps)
	out.set("facade.bytes_per_op", float64(ref.allocBytes)/timedOps)
	refSvc := (meanSvc(ref, opPut)*float64(ref.puts) + meanSvc(ref, opGet)*gets) / timedOps
	trcSvc := (meanSvc(trc, opPut)*float64(trc.puts) + meanSvc(trc, opGet)*gets) / timedOps
	out.set("facade.trace_overhead_frac", trcSvc/refSvc-1)
	out.set("bench.preload_s", ref.preloadS)

	// counts at the facade's own boundaries, from the untraced pass
	m, puts := ref.m, float64(ref.puts)
	if sp.cache {
		out.set("hotcache.hit_frac", float64(m.CacheHits)/float64(m.CacheHits+m.CacheMisses))
		out.set("hotcache.evictions_per_kop", float64(m.CacheEvictions)*1e3/timedOps)
		out.set("kvstore.steered_frac", float64(m.SteeredPlacements)/puts)
	}
	out.set("kvstore.fallback_frac", float64(m.Fallbacks)/puts)
	out.set("nvm.sim_write_ns", m.AvgWriteLatencyNs)
	out.set("nvm.writes_per_put", float64(m.Writes)/puts)
	if sp.writeOnly() {
		out.set("nvm.reads_per_get", float64(ref.sweepReads)/float64(sp.sweepPasses()*g.keys))
	} else {
		out.set("nvm.reads_per_get", float64(m.Reads)/gets)
	}
	out.set("nvm.flips_per_write", float64(m.BitsFlipped)/float64(m.Writes))
	out.set("nvm.lines_skipped_frac", float64(m.LinesSkipped)/float64(m.LinesSkipped+m.LinesWritten))
	if sp.shards > 1 {
		var sum, worst float64
		for _, w := range ref.shardWrites {
			sum += float64(w)
			worst = max(worst, float64(w))
		}
		out.set("shard.imbalance", worst*float64(len(ref.shardWrites))/sum)
		keys := flatten(t, 1).timed
		out.set("shard.route_ns", microMean(len(keys), func(i int) {
			sink += int(shard.Mix64(uint64(keys[i].key)) % uint64(sp.shards))
		}))
	}
	if sp.rf > 1 {
		// the redo log lives in the last segments of every shard's zone
		logSegs := kvstore.LogSlots * (1 + kvstore.LogMaxEntries)
		var all, log uint64
		off := 0
		for s := 0; s < sp.shards; s++ {
			n := len(zone(t.seedImages, sp.shards, s))
			for a, w := range ref.segWrites[off : off+n] {
				all += w
				if a >= n-logSegs {
					log += w
				}
			}
			off += n
		}
		out.set("txn.log_seg_write_share", float64(log)/float64(all))
	}

	// kvstore.Store directly, then the layer-by-layer replay, over one
	// shard's zone and the ops that route to it
	f := flatten(t, sp.shards)
	z := zone(t.seedImages, sp.shards, 0)
	opts := kvstore.Options{CrashSafe: sp.rf > 1}
	direct := &directStore{now: now}
	if sp.cache {
		direct.cache, err = hotcache.New(hotcache.Config{MaxBytes: sp.cacheBytes})
		if err != nil {
			return nil, 0, 0, err
		}
		opts.KeyTemp = keyTemp(direct.cache)
	}
	dm, err := loadModel(model)
	if err != nil {
		return nil, 0, 0, err
	}
	ddev, err := newDevice(z, sp.emulate)
	if err != nil {
		return nil, 0, 0, err
	}
	t0 := time.Now()
	direct.st, err = kvstore.OpenWith(ddev, dm, opts)
	if err != nil {
		return nil, 0, 0, err
	}
	out.set("kvstore.pool_build_s", time.Since(t0).Seconds())
	a, b := runFlat(direct, f, t, g.keys, nil)
	attempted, failed = attempted+a, failed+b
	out.set("kvstore.put_ns", max(direct.putT.mean()-timer, 0))
	if direct.getT.calls > 0 {
		out.set("kvstore.get_ns", max(direct.getT.mean()-timer, 0))
	}

	rm, err := loadModel(model)
	if err != nil {
		return nil, 0, 0, err
	}
	rtr := newTrace(now, 20*len(f.timed)+16)
	stk, err := newStack(rm, z, sp, rtr)
	if err != nil {
		return nil, 0, 0, err
	}
	a, b = runFlat(stk, f, t, g.keys, stk.noteFree)
	attempted, failed = attempted+a, failed+b
	rt := selfTimes(rtr.spans)
	out.set("kvstore.replay_flips_ratio", float64(stk.dev.Stats().BitsFlipped)/float64(ddev.Stats().BitsFlipped))

	// what the replay's layer spans account for, per Put, against what
	// kvstore.Put really takes: every span under a replayed Put except the
	// facade-level cache invalidation, each net of its clock read
	putTree := int64(0)
	var under spanName // spans follow their root: every recorder is sequential
	for _, s := range rtr.spans {
		if s.parent < 0 {
			under = s.name
			continue
		}
		if under != spanReplayPut {
			continue
		}
		switch s.name {
		case spanCacheInvalidate, spanCorePredict, spanCorePredictFull:
			continue // facade-level, and composites that would double count their children
		}
		putTree += s.end - s.start - int64(timer)
	}
	if stk.puts > 0 {
		out.set("kvstore.unattributed_frac", 1-float64(putTree)/float64(stk.puts)/out.vals["kvstore.put_ns"].Value)
		out.set("core.predict_calls_per_put", float64(stk.predicts)/float64(stk.puts))
		out.set("padding.bytes_padded_per_put", float64(stk.padBytes)/float64(stk.puts))
	}
	for _, lm := range []struct {
		metric string
		span   spanName
	}{
		{"padding.pad_ns", spanPaddingPad}, {"infer.predict_ns", spanInferPredict},
		{"dap.get_ns", spanDapGet}, {"dap.add_ns", spanDapAdd},
		{"index.get_ns", spanIndexGet}, {"index.put_ns", spanIndexPut},
		{"nvm.write_ns", spanNvmWrite}, {"nvm.peek_ns", spanNvmPeek}, {"nvm.read_ns", spanNvmRead},
		{"txn.commit_ns", spanTxnCommit},
		{"hotcache.get_hit_ns", spanCacheHit}, {"hotcache.get_miss_ns", spanCacheMiss},
		{"hotcache.fill_ns", spanCacheFill}, {"hotcache.invalidate_ns", spanCacheInvalidate},
		{"hotcache.hotness_ns", spanCacheHotness},
	} {
		if rt[lm.span].calls > 0 {
			out.set(lm.metric, spanMean(rt[lm.span]))
		}
	}
	if stk.commits > 0 {
		out.set("txn.log_flips_per_commit", float64(stk.logFlips)/float64(stk.commits))
	}
	if _, ok := out.vals["nvm.read_ns"]; !ok {
		// no reads on the tape: time the device read on the sweep's terms
		rd := make([]byte, g.segSize)
		out.set("nvm.read_ns", microMean(1<<16, func(i int) {
			if err := stk.dev.ReadInto(i%len(z), rd); err != nil {
				sink++
			}
		}))
	}
	out.set("dap.free_min_cluster", float64(stk.minFree))
	out.set("dap.footprint_bytes", float64(stk.pool.FootprintBytes()))
	out.set("infer.table_bytes", float64(stk.kern.TableBytes()))
	out.set("infer.group_bits", float64(stk.kern.GroupBits()))

	// core's own entry points, back to back on the tape's records
	recs := make([][]byte, len(t.values))
	for i, v := range t.values {
		r := make([]byte, kvstore.RecordOverhead+len(v))
		r[0] = 1
		copy(r[kvstore.RecordOverhead:], v)
		recs[i] = r
	}
	predict := func(img []byte) {
		c, err := rm.PredictBytes(img)
		if err != nil {
			sink++
		}
		sink += c
	}
	out.set("core.predict_ns", microMean(len(recs), func(i int) { predict(recs[i]) }))
	out.set("core.predict_full_ns", microMean(len(t.seedImages), func(i int) { predict(t.seedImages[i]) }))
	blk := make([]int, 8)
	out.set("core.predict_block8_ns_per_item", microMean(len(recs)/8, func(i int) {
		if err := rm.PredictBytesBlock(recs[8*i:8*i+8], blk); err != nil {
			sink++
		}
		sink += blk[0]
	})/8)

	if sp.rf > 1 {
		a, b, err := replicaPass(sp, g, t, model, now, timer, out)
		if err != nil {
			return nil, 0, 0, err
		}
		attempted, failed = attempted+a, failed+b
	}
	if sp.clients > 1 {
		// the same tape through one client: what the second client adds
		one := sp
		one.clients = 1
		t1 := *t
		t1.clients = [][]op{append(append([]op(nil), f.warm...), f.timed...)}
		t1.warm = len(f.warm)
		solo, err := facadePass(one, g, seed, &t1, model, nil, deadline)
		if err != nil {
			return nil, 0, 0, err
		}
		attempted, failed = attempted+solo.attempted, failed+solo.failed
		out.set("kvstore.scaling_2c", phaseRate(ref)/phaseRate(solo))
	}

	out.set("bench.peak_rss_mb", peakRSSMiB())
	if traceOut != "" {
		if err := writeSpans(traceOut, append(facadeSpans, rtr.spans...)); err != nil {
			return nil, 0, 0, fmt.Errorf("writing trace: %w", err)
		}
	}
	return out.list(), attempted, failed, nil
}

// phaseWall is the timed phase's wall time over all slices.
func phaseWall(ms measurement) int64 {
	var wall int64
	for _, w := range ms.ph.wall {
		wall += w
	}
	return wall
}

// phaseRate is the timed phase's ops per second over all slices.
func phaseRate(ms measurement) float64 {
	return float64(ms.ph.issued) * 1e9 / float64(phaseWall(ms))
}

// tempOf is the facade's bridge from cache hotness to placement
// temperature (e2nvm.cacheKeyTemp, which is unexported).
func tempOf(present, hot bool) dap.Temp {
	switch {
	case hot:
		return dap.TempHot
	case present:
		return dap.TempCold
	}
	return dap.TempNone
}

func keyTemp(c *hotcache.Cache) func(uint64) dap.Temp {
	return func(key uint64) dap.Temp { return tempOf(c.Hotness(key)) }
}

// replicaPass builds the workload's replica cluster from public
// constructors and drives the whole tape through replica.Cluster.
func replicaPass(sp spec, g geometry, t *tape, model []byte, now clock, timer float64, out *metricSet) (int, int, error) {
	specs := make([]replica.GroupSpec, sp.shards)
	opts := kvstore.Options{CrashSafe: true}
	for s := range specs {
		z := zone(t.seedImages, sp.shards, s)
		m, err := loadModel(model)
		if err != nil {
			return 0, 0, err
		}
		dev, err := newDevice(z, sp.emulate)
		if err != nil {
			return 0, 0, err
		}
		leader, err := kvstore.OpenWith(dev, m, opts)
		if err != nil {
			return 0, 0, err
		}
		specs[s] = replica.GroupSpec{Leader: leader, Opts: opts}
		for f := 1; f < sp.rf; f++ {
			fdev, err := newDevice(z, sp.emulate)
			if err != nil {
				return 0, 0, err
			}
			specs[s].Followers = append(specs[s].Followers, fdev)
		}
	}
	cl, err := replica.New(specs, replica.Config{})
	if err != nil {
		return 0, 0, err
	}
	defer cl.Close()
	d := &directCluster{c: cl, now: now}
	attempted, failed := runFlat(d, flatten(t, 1), t, g.keys, d.noteLag)
	for d.lag() > 0 {
		time.Sleep(100 * time.Microsecond)
	}
	put := max(d.putT.mean()-timer, 0)
	out.set("replica.put_ns", put)
	out.set("replica.ship_ns", put-out.vals["kvstore.put_ns"].Value)
	out.set("replica.max_lag", float64(d.maxLag))
	var all, follower uint64
	for gi := 0; gi < cl.N(); gi++ {
		for i, dev := range cl.GroupDevices(gi) {
			fl := dev.Stats().BitsFlipped
			all += fl
			if i > 0 { // leader first, then followers
				follower += fl
			}
		}
	}
	out.set("replica.follower_flips_frac", float64(follower)/float64(all))
	return attempted, failed, nil
}
