package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"

	"e2nvm/internal/kvstore"
	"e2nvm/internal/workload"
)

// geometry is the store shape and key/value population every workload
// shares. paperGeometry is what the benchmark reports on; tests shrink it.
type geometry struct {
	segSize, numSegs, clusters, epochs, hidden int

	keys     int // preloaded key count (50 % fill at paperGeometry)
	valueLen int
	poolSize int // pre-generated value images the tape indexes into
}

// paperGeometry is the paper's default: one 256 B Optane block per
// segment, 2048 segments, 1024 keys of 200 B.
var paperGeometry = geometry{
	segSize: 256, numSegs: 2048, clusters: 8, epochs: 3, hidden: 64,
	keys: 1024, valueLen: 200, poolSize: 4096,
}

// valueClasses is the prototype count of the content generator: seed
// images, and every value, sit near one of this many bit patterns.
const valueClasses = 10

type opKind uint8

const (
	opPut opKind = iota
	opGet
)

// op is one tape entry: the operation, its key, and for a Put the index
// of the value image in the pool.
type op struct {
	key  uint32
	val  uint16
	kind opKind
}

// tape is everything a run feeds the store, generated from the seed
// before any timing starts. The store sees only these inputs.
type tape struct {
	seedImages [][]byte // initial content of every segment
	values     [][]byte // the value pool
	preload    []op     // one Put per key, ascending
	clients    [][]op   // per client: warm-up ops, then the timed ops
	warm       int      // warm-up ops at the head of each client's tape
	hash       string
}

// timedOps is the number of timed operations over all clients.
func (t *tape) timedOps() int {
	n := 0
	for _, c := range t.clients {
		n += len(c) - t.warm
	}
	return n
}

// warmFrac is the share of each client's tape run before ResetMetrics.
const warmFrac = 0.05

// numSlices is how many equal op-count slices the timed phase is cut
// into; every timing statistic is computed per slice and reduced across
// slices. A percentile that a slice this fine cannot support is computed
// on runs of coarseRun slices instead (numSlices/coarseRun = 20 slices).
const (
	numSlices = 100
	coarseRun = 5
)

// genTape builds the inputs of one run. totalOps is the timed op count
// over all clients; it is rounded up so that every client's timed phase
// divides into numSlices equal slices.
func genTape(sp spec, g geometry, seed int64, totalOps int) (*tape, error) {
	if g.keys%sp.clients != 0 {
		return nil, fmt.Errorf("bench: %d keys do not partition over %d clients", g.keys, sp.clients)
	}
	if g.valueLen > g.segSize-kvstore.RecordOverhead {
		return nil, fmt.Errorf("bench: %d B values exceed the %d B segment payload", g.valueLen, g.segSize-kvstore.RecordOverhead)
	}
	t := &tape{}

	// Content: segments start as record-shaped images near the class
	// prototypes (flag set, value after the header), as examples/ycsb
	// seeds them, and the value pool comes from the same prototypes, so
	// placement has Hamming structure to find.
	vg := workload.NewValueGen(g.segSize, valueClasses, 0.03, seed)
	t.seedImages = make([][]byte, g.numSegs)
	for a := range t.seedImages {
		seg := make([]byte, g.segSize)
		seg[0] = 1
		copy(seg[kvstore.RecordOverhead:], vg.For(uint64(a)))
		t.seedImages[a] = seg
	}
	t.values = make([][]byte, g.poolSize)
	for j := range t.values {
		// pool image j has class j % valueClasses
		t.values[j] = vg.ForVersion(uint64(j), 0)[:g.valueLen]
	}

	// A key's k-th rewrite carries class (key+k) % valueClasses: content
	// drifts on every update, the regime where placement matters.
	pick := rand.New(rand.NewSource(seed ^ 0x5eed7a9e))
	perClass := g.poolSize / valueClasses
	version := make([]int, g.keys)
	valueFor := func(key uint32) uint16 {
		class := (int(key) + version[key]) % valueClasses
		version[key]++
		return uint16(class + valueClasses*pick.Intn(perClass))
	}

	t.preload = make([]op, g.keys)
	for k := range t.preload {
		t.preload[k] = op{kind: opPut, key: uint32(k), val: valueFor(uint32(k))}
	}

	perClient := (totalOps + sp.clients - 1) / sp.clients
	perClient = (perClient + numSlices - 1) / numSlices * numSlices
	t.warm = int(warmFrac * float64(perClient))
	keysPerClient := g.keys / sp.clients
	t.clients = make([][]op, sp.clients)
	for c := range t.clients {
		next, err := sp.opSource(keysPerClient, seed+int64(c))
		if err != nil {
			return nil, err
		}
		ops := make([]op, t.warm+perClient)
		for i := range ops {
			kind, k := next()
			// client c owns the keys congruent to c, so it alone knows
			// what each of its reads must return
			key := uint32(int(k)*sp.clients + c)
			ops[i] = op{kind: kind, key: key}
			if kind == opPut {
				ops[i].val = valueFor(key)
			}
		}
		t.clients[c] = ops
	}
	t.hash = t.digest()
	return t, nil
}

// opSource returns the generator of one client's (kind, key rank)
// stream over n keys.
func (sp spec) opSource(n int, seed int64) (func() (opKind, uint64), error) {
	if sp.writeOnly() {
		z, err := workload.NewZipfSampler(uint64(n), 0.99, seed)
		if err != nil {
			return nil, err
		}
		return func() (opKind, uint64) { return opPut, z.Next() }, nil
	}
	g, err := workload.NewYCSB(workload.YCSBWorkload(sp.mix), n, seed)
	if err != nil {
		return nil, err
	}
	return func() (opKind, uint64) {
		o := g.Next()
		if o.Type == workload.OpRead {
			return opGet, o.Key
		}
		return opPut, o.Key
	}, nil
}

// digest hashes every input the store will see, so two runs can show
// they were fed the same tape.
func (t *tape) digest() string {
	h := sha256.New()
	var b [8]byte
	writeOps := func(ops []op) {
		for _, o := range ops {
			binary.LittleEndian.PutUint32(b[:], o.key)
			binary.LittleEndian.PutUint16(b[4:], o.val)
			b[6] = byte(o.kind)
			h.Write(b[:7])
		}
	}
	writeOps(t.preload)
	for _, c := range t.clients {
		writeOps(c)
	}
	for _, v := range t.values {
		h.Write(v)
	}
	for _, s := range t.seedImages {
		h.Write(s)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
