// Package experiments contains one runner per figure of the paper's
// evaluation. Each runner regenerates the figure's rows/series on the
// simulated PCM device, scaled down by a configurable factor so the whole
// suite completes on a laptop. The cmd/e2nvm-bench CLI and the repository's
// bench_test.go expose every runner.
package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"e2nvm/internal/index"
	"e2nvm/internal/nvm"
	"e2nvm/internal/stats"
)

// RunConfig controls an experiment run.
type RunConfig struct {
	// Scale multiplies the experiment's default workload sizes. 1.0
	// reproduces the repo's reference configuration; tests use smaller
	// values. Values ≤ 0 are treated as 1.
	Scale float64
	// Seed drives all randomness.
	Seed int64
}

func (c RunConfig) scale() float64 {
	if c.Scale <= 0 {
		return 1
	}
	return c.Scale
}

// scaleInt returns max(lo, round(base*scale)).
func (c RunConfig) scaleInt(base, lo int) int {
	n := int(float64(base) * c.scale())
	if n < lo {
		n = lo
	}
	return n
}

// Result is an experiment's output: the table the paper's figure plots,
// optional labeled series, and free-form notes.
type Result struct {
	ID     string
	Title  string
	Table  *stats.Table
	Series []stats.Series
	Notes  []string
}

// JSON renders the result as a machine-readable document.
func (r *Result) JSON() ([]byte, error) {
	type series struct {
		Name string    `json:"name"`
		X    []float64 `json:"x"`
		Y    []float64 `json:"y"`
	}
	doc := struct {
		ID      string     `json:"id"`
		Title   string     `json:"title"`
		Headers []string   `json:"headers,omitempty"`
		Rows    [][]string `json:"rows,omitempty"`
		Series  []series   `json:"series,omitempty"`
		Notes   []string   `json:"notes,omitempty"`
	}{ID: r.ID, Title: r.Title, Notes: r.Notes}
	if r.Table != nil {
		doc.Headers = r.Table.Headers
		doc.Rows = r.Table.Rows()
	}
	for _, s := range r.Series {
		doc.Series = append(doc.Series, series{Name: s.Name, X: s.X, Y: s.Y})
	}
	return json.MarshalIndent(doc, "", "  ")
}

// Print renders the result to w.
func (r *Result) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	if r.Table != nil {
		r.Table.Write(w)
	}
	for _, s := range r.Series {
		fmt.Fprintf(w, "series %s (%d points)\n", s.Name, s.Len())
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

// Runner computes one figure.
type Runner func(RunConfig) (*Result, error)

var registry = map[string]Runner{}

func register(id string, r Runner) {
	registry[id] = r
}

// Get returns the runner for an experiment id (e.g. "fig10").
func Get(id string) (Runner, bool) {
	r, ok := registry[id]
	return r, ok
}

// IDs lists registered experiment ids in order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// ---------------------------------------------------------------- common --

// mustPredict unwraps a predict result; experiment inputs are self-made,
// so a geometry error is a bug in the experiment, not a runtime condition.
func mustPredict(c int, err error) int {
	if err != nil {
		panic(err)
	}
	return c
}

// runPlacement streams items through an allocator onto dev, keeping at
// most liveCap segments occupied (older segments are deleted and released,
// the steady-state churn of the paper's experiments). It returns per-item
// bit flips.
func runPlacement(dev *nvm.Device, a index.Allocator, items [][]byte, liveCap int) ([]float64, error) {
	flips := make([]float64, 0, len(items))
	var live []int
	for _, item := range items {
		addr, err := a.Place(item)
		if err != nil {
			return nil, err
		}
		res, err := dev.Write(addr, item)
		if err != nil {
			return nil, err
		}
		flips = append(flips, float64(res.BitsFlipped))
		live = append(live, addr)
		if len(live) > liveCap {
			victim := live[0]
			live = live[1:]
			img, err := dev.Peek(victim)
			if err != nil {
				return nil, err
			}
			a.Release(victim, img)
		}
	}
	// Drain the remaining live segments so the pool is conserved across
	// consecutive phases (their content stays on the device either way).
	for _, victim := range live {
		img, err := dev.Peek(victim)
		if err != nil {
			return nil, err
		}
		a.Release(victim, img)
	}
	return flips, nil
}

// seededDevice builds a device whose segments are pre-filled with the
// given images (cycled if fewer than numSegs).
func seededDevice(cfg nvm.Config, images [][]byte) (*nvm.Device, error) {
	dev, err := nvm.NewDevice(cfg)
	if err != nil {
		return nil, err
	}
	if len(images) == 0 {
		return dev, nil
	}
	for a := 0; a < cfg.NumSegments; a++ {
		if err := dev.FillSegment(a, images[a%len(images)]); err != nil {
			return nil, err
		}
	}
	return dev, nil
}

// toBytes converts a float bit vector dataset row into a segment image of
// segSize bytes (truncating or zero-padding).
func toBytes(item []float64, segSize int) []byte {
	out := make([]byte, segSize)
	n := len(item)
	if max := segSize * 8; n > max {
		n = max
	}
	for j := 0; j < n; j++ {
		if item[j] >= 0.5 {
			out[j>>3] |= 1 << (uint(j) & 7)
		}
	}
	return out
}

// toBytesAll converts a whole dataset.
func toBytesAll(items [][]float64, segSize int) [][]byte {
	out := make([][]byte, len(items))
	for i, it := range items {
		out[i] = toBytes(it, segSize)
	}
	return out
}

// addrRange returns [0, n).
func addrRange(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
