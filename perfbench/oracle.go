package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"

	"aalwines/internal/engine"
	"aalwines/internal/explicit"
	"aalwines/internal/labels"
	"aalwines/internal/moped"
	"aalwines/internal/network"
	"aalwines/internal/nfa"
	"aalwines/internal/query"
	"aalwines/internal/topology"
	"aalwines/internal/weight"
)

// fileRefs is the reference file inside an inputs directory.
const fileRefs = "refs.json"

// refWorkers bounds the goroutines computing references.
const refWorkers = 2

// Reference engines, as recorded in each ref. Moped is the Moped-style
// saturator (internal/moped) in place of the measured post*; dual is the
// measured dual engine. Both run with slicing, reductions (and for dual,
// early accept) off, and every satisfied reference's witness must pass
// checkWitness. A ref records its engine with "+explicit" when the
// explicit-state checker agreed, and "+witness" when the witness is all
// that confirms it (refTask.WitnessOnly).
const (
	engMoped = "moped"
	engDual  = "dual"
)

// ref is the reference answer for one verification.
type ref struct {
	Verdict string   `json:"verdict"`
	Weight  []uint64 `json:"weight,omitempty"`
	Engine  string   `json:"engine"`
}

// refFile holds a workload's references: in an inputs directory all of
// them, in perfbench/refs only those of the fixed inputs.
type refFile struct {
	Workload string `json:"workload"`
	// FixedSHA256 hashes the inputs that are the same for every seed; a
	// stored file applies to the inputs whose fixed part hashes the same.
	FixedSHA256 string `json:"fixedSha256"`
	// Seed, InputsSHA256 (all inputs), Generator (the binary that wrote
	// them; a different binary regenerates) and Stored (references taken
	// from perfbench/refs) describe an inputs directory.
	Seed         int64          `json:"seed,omitempty"`
	InputsSHA256 string         `json:"inputsSha256,omitempty"`
	Generator    string         `json:"generator,omitempty"`
	Stored       int            `json:"stored,omitempty"`
	Refs         map[string]ref `json:"refs"`
}

// computeRefs answers every task on refWorkers goroutines: unweighted
// tasks of the fixed inputs with the Moped-style saturator unless
// dualOnly or the task is WitnessOnly, all others with the dual engine.
// Any error — including an explicit-state checker that contradicts the
// reference — fails the whole computation.
func computeRefs(tasks []refTask, dualOnly bool) (map[string]ref, error) {
	out := make(map[string]ref, len(tasks))
	var mu sync.Mutex
	var firstErr error
	next := make(chan refTask)
	var wg sync.WaitGroup
	for w := 0; w < refWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range next {
				r, err := reference(t, t.Fixed && t.Weight == "" && !t.WitnessOnly && !dualOnly)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("reference %s (%q): %w", t.Key, t.Query, err)
				}
				out[t.Key] = r
				mu.Unlock()
			}
		}()
	}
	for _, t := range tasks {
		next <- t
	}
	close(next)
	wg.Wait()
	return out, firstErr
}

func reference(t refTask, useMoped bool) (ref, error) {
	q, err := query.Parse(t.Query, t.Net)
	if err != nil {
		return ref{}, err
	}
	r := ref{Engine: engDual}
	opts := engine.Options{NoSlice: true, NoReductions: true, NoEarlyAccept: true}
	if useMoped {
		r.Engine = engMoped
		opts = engine.Options{Saturate: moped.Poststar, NoSlice: true, NoReductions: true}
	}
	if t.Weight != "" {
		if opts.Spec, err = weight.ParseSpec(t.Weight); err != nil {
			return ref{}, err
		}
	}
	res, err := engine.Verify(t.Net, q, opts)
	if err != nil {
		return ref{}, err
	}
	r.Verdict, r.Weight = res.Verdict.String(), res.Weight
	if err := checkResult(t.Net, res, q); err != nil {
		return r, err
	}
	if t.WitnessOnly {
		if res.Verdict != engine.Satisfied {
			return r, fmt.Errorf("verdict %s has no engine to confirm it at this scale", r.Verdict)
		}
		r.Engine += "+witness"
	}
	if t.Explicit {
		r.Engine += "+explicit"
		if err := explicitAgrees(t.Net, q, res.Verdict); err != nil {
			return r, err
		}
	}
	return r, nil
}

// sameVerdicts checks that every weighted reference repeats the verdict of
// its unweighted counterpart.
func sameVerdicts(tasks []refTask, refs map[string]ref) error {
	for _, t := range tasks {
		if t.SameVerdictAs == "" {
			continue
		}
		if a, b := refs[t.Key], refs[t.SameVerdictAs]; a.Verdict != b.Verdict {
			return fmt.Errorf("reference %s: verdict %s, unweighted %s (%s) says %s",
				t.Key, a.Verdict, t.SameVerdictAs, b.Engine, b.Verdict)
		}
	}
	return nil
}

// explicitAgrees applies the sound comparisons between a symbolic verdict
// and the explicit-state checker: explicit satisfied ⟹ not Unsatisfied;
// Satisfied ⟹ explicit satisfied unless its height bound pruned the search.
// Searches that exceed the checker's state budget decide nothing.
func explicitAgrees(net *network.Network, q *query.Query, v engine.Verdict) error {
	exp, err := explicit.Verify(net, q, explicit.Options{MaxHeight: 6, MaxStates: 200_000})
	if errors.Is(err, explicit.ErrStateBudget) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("explicit: %w", err)
	}
	if exp.Satisfied && v == engine.Unsatisfied {
		return fmt.Errorf("explicit checker found a witness for an unsatisfied reference")
	}
	if v == engine.Satisfied && !exp.Satisfied && !exp.HitHeightBound {
		return fmt.Errorf("explicit checker found no witness for a satisfied reference")
	}
	return nil
}

func writeRefs(path string, rf refFile) error {
	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readRefs(path string) (refFile, error) {
	var rf refFile
	data, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(data, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// outcome is what one verification of an op returned, as the worker saw it.
type outcome struct {
	Key     string   `json:"key"`
	Verdict string   `json:"verdict,omitempty"`
	Weight  []uint64 `json:"weight,omitempty"`
	// Err is the op's error: a failed call, a non-2xx status, an error
	// item, or a witness that does not replay.
	Err string `json:"err,omitempty"`
}

// opResult is one op: its latency and the verifications it carried.
type opResult struct {
	MS       float64   `json:"ms"`
	Outcomes []outcome `json:"outcomes,omitempty"`
	// Err fails the op as a whole (transport errors, bad status).
	Err string `json:"err,omitempty"`
}

// judge checks every op against the references. It returns the number of
// failed ops, the number of decided ops (every verdict conclusive), and up
// to a few messages describing failures.
func judge(ops []opResult, refs map[string]ref) (failed, decided int, msgs []string) {
	note := func(format string, args ...any) {
		if len(msgs) < 8 {
			msgs = append(msgs, fmt.Sprintf(format, args...))
		}
	}
	for i, op := range ops {
		ok, conclusive := op.Err == "", op.Err == ""
		if op.Err != "" {
			note("op %d: %s", i, op.Err)
		}
		for _, o := range op.Outcomes {
			r, have := refs[o.Key]
			switch {
			case o.Err != "":
				ok = false
				note("op %d %s: %s", i, o.Key, o.Err)
			case !have:
				ok = false
				note("op %d %s: no reference", i, o.Key)
			case o.Verdict != r.Verdict:
				ok = false
				note("op %d %s: verdict %s, reference %s", i, o.Key, o.Verdict, r.Verdict)
			case !slices.Equal(o.Weight, r.Weight):
				ok = false
				note("op %d %s: weight %v, reference %v", i, o.Key, o.Weight, r.Weight)
			}
			if o.Verdict != "satisfied" && o.Verdict != "unsatisfied" {
				conclusive = false
			}
		}
		if !ok {
			failed++
		}
		if conclusive {
			decided++
		}
	}
	return failed, decided, msgs
}

// replayer checks witnesses by name against one network.
type replayer struct {
	net   *network.Network
	links map[string]topology.LinkID
}

func newReplayer(net *network.Network) *replayer {
	links := make(map[string]topology.LinkID, net.Topo.NumLinks())
	for l := 0; l < net.Topo.NumLinks(); l++ {
		links[net.Topo.LinkName(topology.LinkID(l))] = topology.LinkID(l)
	}
	return &replayer{net: net, links: links}
}

// step is a witness step by name, as the API and watch cells render it.
type step struct {
	Link   string
	Header []string
}

// check resolves a witness's names and checks it with checkWitness; q
// must be parsed against the replayer's network.
func (rp *replayer) check(trace []step, failed []string, q *query.Query) error {
	fs := network.FailedSet{}
	for _, name := range failed {
		l, ok := rp.links[name]
		if !ok {
			return fmt.Errorf("witness fails unknown link %q", name)
		}
		fs[l] = true
	}
	tr := make(network.Trace, len(trace))
	for i, s := range trace {
		l, ok := rp.links[s.Link]
		if !ok {
			return fmt.Errorf("witness uses unknown link %q", s.Link)
		}
		h := make(labels.Header, len(s.Header))
		for j, name := range s.Header {
			if h[j] = rp.net.Labels.Lookup(name); h[j] == 0 {
				return fmt.Errorf("witness uses unknown label %q", name)
			}
		}
		tr[i] = network.Step{Link: l, Header: h}
	}
	return checkWitness(rp.net, tr, fs, q)
}

// checkResult checks a satisfied engine result's witness directly by ID.
func checkResult(net *network.Network, res engine.Result, q *query.Query) error {
	if res.Verdict != engine.Satisfied {
		return nil
	}
	return checkWitness(net, res.Trace, res.Failed, q)
}

// checkWitness proves a satisfied verdict without trusting post*: the
// trace must be a valid run of the network under its failed set, that set
// may hold at most k links, and the trace must match the query — its
// first header the initial header expression, its links the path
// expression, its last header the final header expression.
func checkWitness(net *network.Network, tr network.Trace, failed network.FailedSet, q *query.Query) error {
	if len(tr) == 0 {
		return fmt.Errorf("satisfied without a witness")
	}
	if len(failed) > q.MaxFailures {
		return fmt.Errorf("witness fails %d links, query allows %d", len(failed), q.MaxFailures)
	}
	if err := net.ValidTrace(tr, failed); err != nil {
		return fmt.Errorf("witness does not replay: %w", err)
	}
	path := make([]nfa.Sym, len(tr))
	for i, s := range tr {
		path[i] = query.LinkSym(s.Link)
	}
	switch {
	case !q.PreNFA.Accepts(headerSyms(tr[0].Header)):
		return fmt.Errorf("witness's initial header does not match the query")
	case !q.PathNFA.Accepts(path):
		return fmt.Errorf("witness's path does not match the query")
	case !q.PostNFA.Accepts(headerSyms(tr[len(tr)-1].Header)):
		return fmt.Errorf("witness's final header does not match the query")
	}
	return nil
}

func headerSyms(h labels.Header) []nfa.Sym {
	syms := make([]nfa.Sym, len(h))
	for i, id := range h {
		syms[i] = query.LabelSym(id)
	}
	return syms
}
