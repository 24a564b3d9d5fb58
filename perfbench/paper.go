package main

import (
	"math"
	"path/filepath"
	"runtime"
	"time"

	"aalwines/internal/engine"
	"aalwines/internal/network"
	"aalwines/internal/query"
	"aalwines/internal/translate"
)

// paperCold verifies the Table-1 and seeded queries on the paper-scale
// NORDUnet network one at a time, each cold: no translation state is
// shared between ops.
type paperCold struct {
	net     *network.Network
	queries []string
	// results holds every op's engine result, in op order, for the
	// witness replay after timing.
	results []paperResult
	// Traced-phase samples, one per op.
	parseMS, sliceMS, buildMS, initMS []float64
	nfaStates, emitted, kept          []float64
	// probes holds the traced ops' parsed queries for probeTranslate.
	probes []probe
}

type probe struct {
	op int
	q  *query.Query
}

type paperResult struct {
	res engine.Result
	q   *query.Query
}

func (w *paperCold) load(dir string) error {
	for _, name := range []string{fileQueries, fileSeededQueries} {
		qs, err := readLines(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		w.queries = append(w.queries, qs...)
	}
	return nil
}

func (w *paperCold) setup(dir string) (time.Duration, error) {
	t0 := time.Now()
	net, err := readNetwork(dir, "net")
	if err != nil {
		return 0, err
	}
	read := time.Since(t0)
	net.Routing.Keys() // builds the table's shared read view
	w.net = net
	return read, nil
}

func (w *paperCold) teardown() { w.net = nil }

// paperPassSeconds is the nominal time of one pass over the paper-cold
// query list on the 2-CPU machine the bounds were set on.
const paperPassSeconds = 5

// run verifies whole passes over the query list, round(seconds /
// paperPassSeconds) of them (at least one), so every run times the same
// ops. A run of about 25 ops cut off by the clock would make its median and
// tail jump between the list's fast (reach, waypoint) and slow (tunnel)
// queries as the op count shifts by one or two.
//
// Each op starts on a collected heap: a cold op shares no garbage with the
// one before, whose leftovers would otherwise set the heap size at which
// the next op's collections start. Peak RSS then spreads by a few percent
// across runs instead of 500–660 MB.
func (w *paperCold) run(p *phase, deadline time.Time, rec *recorder) error {
	passes := max(1, int(math.Round(time.Until(deadline).Seconds()/paperPassSeconds)))
	for i := 0; i < passes*len(w.queries); i++ {
		runtime.GC()
		text := w.queries[i%len(w.queries)]
		op := len(w.results) + 1
		t0 := time.Now()
		q, err := query.Parse(text, w.net)
		t1 := time.Now()
		var res engine.Result
		if err == nil {
			res, err = engine.Verify(w.net, q, engine.Options{})
		}
		t2 := time.Now()

		o := outcome{Key: queryKey(i % len(w.queries)), Verdict: res.Verdict.String()}
		r := paperResult{res: res}
		if err != nil {
			o = outcome{Key: o.Key, Err: err.Error()}
		} else {
			r.q = q
		}
		p.ops = append(p.ops, opResult{MS: ms(t2.Sub(t0)), Outcomes: []outcome{o}})
		w.results = append(w.results, r)

		if rec == nil || err != nil {
			continue
		}
		opID := rec.add(op, 0, "op", t0, t2)
		rec.add(op, opID, "query.parse", t0, t1)
		vID := rec.add(op, opID, "engine.verify", t1, t2)
		st := res.Stats
		rec.sequence(op, vID, t1,
			namedDur{"engine.translate", st.BuildTime},
			namedDur{"pds.saturate", st.OverTime},
			namedDur{"engine.reconstruct", st.ReconstructTime},
			namedDur{"pds.saturate.under", st.UnderTime})
		w.parseMS = append(w.parseMS, ms(t1.Sub(t0)))
		w.nfaStates = append(w.nfaStates, float64(q.PathNFA.NumStates()))
		w.emitted = append(w.emitted, float64(st.OverRulesPre))
		w.kept = append(w.kept, float64(st.OverRules))
		w.probes = append(w.probes, probe{op, q})
	}
	return nil
}

// probeTranslate times the translation layer's public steps on a traced
// op's query, after the traced phase so that its garbage does not slow the
// phase's ops: the engine runs them as one build phase, so their split is
// only visible by calling them directly.
func (w *paperCold) probeTranslate(rec *recorder, op int, q *query.Query) {
	t0 := time.Now()
	translate.ComputeSlice(w.net, q)
	t1 := time.Now()
	sys := translate.Build(w.net, q, translate.Options{Mode: translate.Over, Slice: true})
	t2 := time.Now()
	sys.InitAuto()
	t3 := time.Now()
	id := rec.add(op, 0, "translate.probe", t0, t3)
	rec.add(op, id, "translate.slice", t0, t1)
	rec.add(op, id, "translate.build", t1, t2)
	rec.add(op, id, "translate.init_auto", t2, t3)
	w.sliceMS = append(w.sliceMS, ms(t1.Sub(t0)))
	w.buildMS = append(w.buildMS, ms(t2.Sub(t1)))
	w.initMS = append(w.initMS, ms(t3.Sub(t2)))
}

func (w *paperCold) verify(ops []opResult) error {
	for i, r := range w.results {
		if err := checkResult(w.net, r.res, r.q); err != nil {
			ops[i].Outcomes[0].Err = err.Error()
		}
	}
	return nil
}

func (w *paperCold) layers(p *phase, rec *recorder) map[string]float64 {
	for _, pr := range w.probes {
		w.probeTranslate(rec, pr.op, pr.q)
	}
	return map[string]float64{
		"query.parse_ms":          mean(w.parseMS),
		"query.path_nfa_states":   mean(w.nfaStates),
		"translate.slice_ms":      mean(w.sliceMS),
		"translate.build_ms":      mean(w.buildMS),
		"translate.init_auto_ms":  mean(w.initMS),
		"translate.rules_emitted": mean(w.emitted),
		"translate.rules_kept":    mean(w.kept),
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
