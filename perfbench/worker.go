package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"aalwines/internal/obs"
)

// setupRuns is how many times a worker sets up before timing; setup_s is
// the median.
const setupRuns = 3

// workload is one benchmark workload inside the measured process.
type workload interface {
	// load reads the op stream (queries, feed, request schedule) once,
	// outside every timed interval.
	load(dir string) error
	// setup loads the program's inputs and makes it ready for the first
	// op; it returns the time spent in xmlio.ReadNetwork.
	setup(dir string) (xmlRead time.Duration, err error)
	// teardown releases what setup built.
	teardown()
	// run executes ops until the deadline (or the workload's input ends),
	// recording spans when rec is non-nil.
	run(p *phase, deadline time.Time, rec *recorder) error
	// verify replays witnesses after timing, marking outcomes that fail.
	verify(ops []opResult) error
	// layers derives the per-layer metrics of the traced phase p. It may
	// add spans that only become known once the phase is over, and run
	// probes outside the phase.
	layers(p *phase, rec *recorder) map[string]float64
}

func newWorkload(name string) (workload, error) {
	switch name {
	case wlPaper:
		return &paperCold{}, nil
	case wlLive:
		return &whatifLive{}, nil
	case wlAPI:
		return &apiWarm{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// phase is one timed phase: its ops and the process counters around it.
type phase struct {
	ops     []opResult
	wall    time.Duration
	pre     obs.Snapshot
	post    obs.Snapshot
	memPre  runtime.MemStats
	memPost runtime.MemStats
	cpuPre  [2]float64 // gc, total cpu-seconds
	cpuPost [2]float64
}

// workerOut is what the measured process reports to the driver.
type workerOut struct {
	SetupS    []float64 `json:"setupS"`
	XMLReadS  []float64 `json:"xmlReadS"`
	TimedS    float64   `json:"timedS"`
	PeakRSSMB float64   `json:"peakRssMb"`
	GOMAXPROC int       `json:"gomaxprocs"`
	Ops       []opResult
	// Trace-mode fields.
	Layers      map[string]float64 `json:"layers,omitempty"`
	Summary     []layerSummary     `json:"summary,omitempty"`
	UntracedP50 float64            `json:"untracedP50Ms,omitempty"`
	TracedP50   float64            `json:"tracedP50Ms,omitempty"`
	SpanFile    string             `json:"spanFile,omitempty"`
}

type workerConfig struct {
	Workload string
	Seed     int64
	Dir      string
	Seconds  float64
	Trace    bool
	SpanPath string
}

// runWorker sets the workload up setupRuns times, then measures it. An
// untraced run is one timed phase; a traced run is an untraced phase and
// a traced phase of half the time each, so the tracing overhead is the
// ratio of their median op latencies. The peak resident set is read as
// soon as timing ends, before probes and the witness replay.
func runWorker(cfg workerConfig) (*workerOut, error) {
	w, err := newWorkload(cfg.Workload)
	if err != nil {
		return nil, err
	}
	if err := w.load(cfg.Dir); err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	out := &workerOut{GOMAXPROC: runtime.GOMAXPROCS(0)}
	for i := 0; i < setupRuns; i++ {
		if i > 0 {
			w.teardown()
			releaseMemory()
		}
		t0 := time.Now()
		read, err := w.setup(cfg.Dir)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		out.SetupS = append(out.SetupS, time.Since(t0).Seconds())
		out.XMLReadS = append(out.XMLReadS, read.Seconds())
	}
	defer w.teardown()
	runtime.GC()

	secs := time.Duration(cfg.Seconds * float64(time.Second))
	if !cfg.Trace {
		p, err := measure(w, secs, nil)
		if err != nil {
			return nil, err
		}
		out.Ops, out.TimedS = p.ops, p.wall.Seconds()
		out.PeakRSSMB = peakRSSMB()
	} else {
		a, err := measure(w, secs/2, nil)
		if err != nil {
			return nil, err
		}
		rec := newRecorder()
		b, err := measure(w, secs/2, rec)
		if err != nil {
			return nil, err
		}
		out.PeakRSSMB = peakRSSMB()
		out.Layers = commonLayers(a, b)
		for k, v := range w.layers(b, rec) {
			out.Layers[k] = v
		}
		out.Summary = summarize(rec.snapshot())
		out.Layers["xmlio.read_s"] = median(out.XMLReadS)
		out.UntracedP50, out.TracedP50 = p50(a.ops), p50(b.ops)
		out.Layers["trace.overhead_ratio"] = ratio(out.TracedP50, out.UntracedP50) - 1
		if cfg.SpanPath != "" {
			if err := rec.write(cfg.SpanPath); err != nil {
				return nil, err
			}
			out.SpanFile = cfg.SpanPath
		}
		out.Ops = append(a.ops, b.ops...)
		out.TimedS = (a.wall + b.wall).Seconds()
	}
	if err := w.verify(out.Ops); err != nil {
		return nil, err
	}
	return out, nil
}

// measure runs one timed phase, capturing process counters around it.
func measure(w workload, d time.Duration, rec *recorder) (*phase, error) {
	p := &phase{}
	p.pre = obs.Default.Snapshot()
	runtime.ReadMemStats(&p.memPre)
	p.cpuPre = cpuSeconds()
	t0 := time.Now()
	if err := w.run(p, t0.Add(d), rec); err != nil {
		return nil, err
	}
	p.wall = time.Since(t0)
	p.cpuPost = cpuSeconds()
	runtime.ReadMemStats(&p.memPost)
	p.post = obs.Default.Snapshot()
	return p, nil
}

func p50(ops []opResult) float64 {
	ms := make([]float64, len(ops))
	for i, op := range ops {
		ms[i] = op.MS
	}
	return median(ms)
}

// cpuSeconds reads the process's cumulative GC and total CPU time.
func cpuSeconds() [2]float64 {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var out [2]float64
	for i := range s {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// counterDelta sums post−pre over every counter whose name starts with
// prefix (label variants included).
func counterDelta(p *phase, prefix string) float64 {
	var d int64
	for name, v := range p.post.Counters {
		if strings.HasPrefix(name, prefix) {
			d += v - p.pre.Counters[name]
		}
	}
	return float64(d)
}

func floatCounterDelta(p *phase, name string) float64 {
	return p.post.FloatCounters[name] - p.pre.FloatCounters[name]
}

// histDelta returns the growth of a histogram's sample count and sum.
func histDelta(p *phase, name string) (count, sum float64) {
	a, b := p.pre.Histograms[name], p.post.Histograms[name]
	return float64(b.Count - a.Count), b.Sum - a.Sum
}

// enginePhaseMS is the per-op time the engine spent in one phase, in ms.
func enginePhaseMS(p *phase, ph string) float64 {
	_, sum := histDelta(p, `engine_phase_seconds{phase="`+ph+`"}`)
	return ratio(sum*1000, float64(len(p.ops)))
}

// commonLayers derives the per-layer metrics every workload reports the
// same way: saturation and engine counters from the metrics registry over
// the traced phase, and runtime costs over the untraced phase (so span
// bookkeeping does not count).
func commonLayers(untraced, traced *phase) map[string]float64 {
	t := traced
	ops := float64(len(t.ops))
	runs := counterDelta(t, `pds_saturation_runs_total{alg="poststar"}`)
	early := counterDelta(t, "pds_early_accept_total")
	underN, _ := histDelta(t, `engine_phase_seconds{phase="under"}`)
	l := map[string]float64{
		"pds.saturate_ms":             enginePhaseMS(t, "over") + enginePhaseMS(t, "under"),
		"pds.worklist_pops":           ratio(counterDelta(t, "pds_worklist_pops_total"), ops),
		"pds.trans_inserted":          ratio(counterDelta(t, "pds_trans_inserted_total"), ops),
		"pds.index_probes":            ratio(counterDelta(t, "pds_index_probes_total"), ops),
		"pds.early_accept_ratio":      ratio(early, runs),
		"engine.early_fallback_ratio": ratio(counterDelta(t, "engine_early_accept_fallback_total"), early),
		"engine.reconstruct_ms":       enginePhaseMS(t, "reconstruct"),
		"engine.under_used_ratio":     ratio(underN, counterDelta(t, "engine_runs_total")),
		"translate.build_ms":          enginePhaseMS(t, "build"),
		"translate.cache_hit_ratio":   ratio(counterDelta(t, "translate_cache_hits_total"), counterDelta(t, "translate_cache_gets_total")),
	}
	u := untraced
	if n := float64(len(u.ops)); n > 0 {
		l["runtime.alloc_mb_per_op"] = float64(u.memPost.TotalAlloc-u.memPre.TotalAlloc) / (1 << 20) / n
		l["runtime.mallocs_per_op"] = float64(u.memPost.Mallocs-u.memPre.Mallocs) / n
		l["runtime.gc_cycles_per_op"] = float64(u.memPost.NumGC-u.memPre.NumGC) / n
		l["runtime.gc_cpu_fraction"] = ratio(u.cpuPost[0]-u.cpuPre[0], u.cpuPost[1]-u.cpuPre[1])
	}
	return l
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
