package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// nearestRank returns the q-quantile (0 < q ≤ 1) of sorted samples by the
// nearest-rank definition: the smallest sample with at least q·n samples at
// or below it. It returns an exact sample, never an interpolation.
func nearestRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailMinBeyond is how many samples must lie beyond the reported tail.
const tailMinBeyond = 10

// tail is the latency at the highest percentile that still has at least
// tailMinBeyond samples beyond it.
type tail struct {
	Value      float64 `json:"value"`
	Percentile float64 `json:"percentile"`
	Beyond     int     `json:"beyond"`
	Samples    int     `json:"samples"`
	// RuleMet is false when there are too few samples for any percentile
	// to have tailMinBeyond samples beyond it; Value is then the maximum.
	RuleMet bool `json:"ruleMet"`
}

// tailOf applies the tail rule to sorted samples: with n samples, the
// sample of rank n-tailMinBeyond (1-based) is the highest one with
// tailMinBeyond samples beyond it, at percentile 100·rank/n.
func tailOf(sorted []float64) tail {
	n := len(sorted)
	if n == 0 {
		return tail{}
	}
	rank := n - tailMinBeyond
	if rank < 1 {
		return tail{Value: sorted[n-1], Percentile: 100, Samples: n}
	}
	return tail{
		Value:      sorted[rank-1],
		Percentile: 100 * float64(rank) / float64(n),
		Beyond:     n - rank,
		Samples:    n,
		RuleMet:    true,
	}
}

// median of unsorted samples (nearest rank).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return nearestRank(s, 0.5)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// span is one traced interval. Spans of one op share Op; Parent is the ID of
// the enclosing span (0 for a root). Times are nanoseconds since the
// recorder started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, so untraced code paths pay one nil check per span.
type recorder struct {
	t0     time.Time
	mu     sync.Mutex
	nextID int
	spans  []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records a span over [start, end] and returns its ID (0 when r is nil).
func (r *recorder) add(op, parent int, name string, start, end time.Time) int {
	id := r.reserve()
	r.put(id, op, parent, name, start, end)
	return id
}

// reserve allocates a span ID ahead of recording the span, so children
// recorded elsewhere (another goroutine) can name their parent first.
func (r *recorder) reserve() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	return r.nextID
}

// put records a span under a reserved ID.
func (r *recorder) put(id, op, parent int, name string, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0)),
	})
}

// sequence records child spans laid end to end from start, one per
// (name, duration) pair with a positive duration: how the timings a call
// returns (engine.Stats, the API's timingMs block) become child spans.
func (r *recorder) sequence(op, parent int, start time.Time, parts ...namedDur) {
	for _, p := range parts {
		if p.d <= 0 {
			continue
		}
		r.add(op, parent, p.name, start, start.Add(p.d))
		start = start.Add(p.d)
	}
}

type namedDur struct {
	name string
	d    time.Duration
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores the spans as JSON at path.
func (r *recorder) write(path string) error {
	data, err := json.Marshal(r.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerSummary is the per-span-name aggregate of a traced run.
type layerSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"totalMs"`
	SelfMS  float64 `json:"selfMs"`
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval covered by its children (overlapping children count once, and
// child time outside the parent's interval does not count).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	ivs = append([][2]int64(nil), ivs...)
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// summarize aggregates spans by name, sorted by self time, largest first.
func summarize(spans []span) []layerSummary {
	self := selfTimes(spans)
	byName := map[string]*layerSummary{}
	for _, s := range spans {
		ls := byName[s.Name]
		if ls == nil {
			ls = &layerSummary{Name: s.Name}
			byName[s.Name] = ls
		}
		ls.Count++
		ls.TotalMS += float64(s.End-s.Start) / 1e6
		ls.SelfMS += float64(self[s.ID]) / 1e6
	}
	out := make([]layerSummary, 0, len(byName))
	for _, ls := range byName {
		out = append(out, *ls)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfMS != out[j].SelfMS {
			return out[i].SelfMS > out[j].SelfMS
		}
		return out[i].Name < out[j].Name
	})
	return out
}
