package engine_test

import (
	"testing"

	"aalwines/internal/engine"
	"aalwines/internal/gen"
	"aalwines/internal/labels"
	"aalwines/internal/network"
	"aalwines/internal/nfa"
	"aalwines/internal/obs"
	"aalwines/internal/query"
	"aalwines/internal/routing"
	"aalwines/internal/topology"
	"aalwines/internal/weight"
)

func phi(i int) string {
	switch i {
	case 0:
		return "<ip> [.#v0] .* [v3#.] <ip> 0"
	case 1:
		return "<ip> [.#v0] [^v2#v3]* [v3#.] <ip> 2"
	case 2:
		return "<s40 ip> [.#v0] .* [v3#.] <smpls ip> 0"
	case 3:
		return "<s40 ip> [.#v0] .* [v3#.] <mpls+ smpls ip> 1"
	case 4:
		return "<smpls? ip> [.#v0] . . . .* [v3#.] <smpls? ip> 1"
	default:
		panic("no such phi")
	}
}

// TestRunningExampleVerdicts reproduces Figure 1d: φ0, φ1, φ2, φ4 are
// satisfied; φ3 (label transparency violation) is not.
func TestRunningExampleVerdicts(t *testing.T) {
	re := gen.RunningExample()
	want := []engine.Verdict{
		engine.Satisfied, engine.Satisfied, engine.Satisfied,
		engine.Unsatisfied, engine.Satisfied,
	}
	for i := 0; i <= 4; i++ {
		res, err := engine.VerifyText(re.Network, phi(i), engine.Options{})
		if err != nil {
			t.Fatalf("phi%d: %v", i, err)
		}
		if res.Verdict != want[i] {
			t.Errorf("phi%d: verdict %v, want %v", i, res.Verdict, want[i])
		}
		if res.Verdict == engine.Satisfied {
			checkWitness(t, re.Network, phi(i), res)
		}
	}
}

// checkWitness validates an engine witness end to end: the trace must be
// feasible under its failure set, valid per the network semantics, and its
// headers/path must match the query regexes.
func checkWitness(t *testing.T, net *network.Network, qtext string, res engine.Result) {
	t.Helper()
	q, err := query.Parse(qtext, net)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Errorf("%s: satisfied with empty trace", qtext)
		return
	}
	if len(res.Failed) > q.MaxFailures {
		t.Errorf("%s: witness needs %d failures > k=%d", qtext, len(res.Failed), q.MaxFailures)
	}
	if err := net.ValidTrace(res.Trace, res.Failed); err != nil {
		t.Errorf("%s: witness invalid: %v", qtext, err)
	}
	first := res.Trace[0].Header
	last := res.Trace[len(res.Trace)-1].Header
	if !q.PreNFA.Accepts(headerSyms(first)) {
		t.Errorf("%s: initial header %s not in Lang(a)", qtext, first.Format(net.Labels))
	}
	if !q.PostNFA.Accepts(headerSyms(last)) {
		t.Errorf("%s: final header %s not in Lang(c)", qtext, last.Format(net.Labels))
	}
	if !q.PathNFA.Accepts(pathSyms(res.Trace)) {
		t.Errorf("%s: link sequence not in Lang(b)", qtext)
	}
}

func headerSyms(h labels.Header) []nfa.Sym {
	out := make([]nfa.Sym, len(h))
	for i, id := range h {
		out[i] = query.LabelSym(id)
	}
	return out
}

func pathSyms(tr network.Trace) []nfa.Sym {
	out := make([]nfa.Sym, len(tr))
	for i, s := range tr {
		out[i] = query.LinkSym(s.Link)
	}
	return out
}

// TestMinimumWitness reproduces the §3 computation on φ4: minimising
// (Hops, Failures + 3·Tunnels) must produce σ3's weight (5, 0), not σ2's
// (5, 7).
func TestMinimumWitness(t *testing.T) {
	re := gen.RunningExample()
	spec, err := weight.ParseSpec("Hops, Failures + 3*Tunnels")
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.VerifyText(re.Network, phi(4), engine.Options{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != engine.Satisfied {
		t.Fatalf("verdict = %v", res.Verdict)
	}
	if !res.Weight.Equal(weight.Vec{5, 0}) {
		t.Fatalf("minimum witness weight = %v, want (5, 0) [σ3]", res.Weight)
	}
	// The witness must be σ3: the service-label path via e1 e5 e6 e7.
	wantLinks := []topology.LinkID{re.Links["e0"], re.Links["e1"], re.Links["e5"], re.Links["e6"], re.Links["e7"]}
	got := res.Trace.Links()
	if len(got) != len(wantLinks) {
		t.Fatalf("witness = %s", res.Trace.Format(re.Network))
	}
	for i := range got {
		if got[i] != wantLinks[i] {
			t.Fatalf("witness = %s, want σ3", res.Trace.Format(re.Network))
		}
	}
}

// TestWeightedFailuresMinimisation: minimising Failures on φ4 must find a
// zero-failure witness (σ3).
func TestWeightedFailuresMinimisation(t *testing.T) {
	re := gen.RunningExample()
	spec := weight.Spec{{{Coeff: 1, Q: weight.Failures}}}
	res, err := engine.VerifyText(re.Network, phi(4), engine.Options{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != engine.Satisfied {
		t.Fatalf("verdict = %v", res.Verdict)
	}
	if !res.Weight.Equal(weight.Vec{0}) {
		t.Fatalf("min Failures = %v, want (0)", res.Weight)
	}
	if len(res.Failed) != 0 {
		t.Fatalf("failed set = %v, want empty", res.Failed.Sorted())
	}
}

// TestHopsMinimisationPicksShortPath: with Hops minimised, φ0 must return a
// 4-link witness (σ0 or σ1), not anything longer.
func TestHopsMinimisationPicksShortPath(t *testing.T) {
	re := gen.RunningExample()
	spec := weight.Spec{{{Coeff: 1, Q: weight.Hops}}}
	res, err := engine.VerifyText(re.Network, phi(0), engine.Options{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != engine.Satisfied {
		t.Fatalf("verdict = %v", res.Verdict)
	}
	if !res.Weight.Equal(weight.Vec{4}) {
		t.Fatalf("min Hops = %v, want (4)", res.Weight)
	}
}

// TestFailoverRequiresFailureBudget: the backup path s20→e5 exists only
// under a failure of e4; a query forcing the path through v4 with k=0 must
// be unsatisfied, with k=1 satisfied requiring F={e4}.
func TestFailoverRequiresFailureBudget(t *testing.T) {
	re := gen.RunningExample()
	q0 := "<ip> [.#v0] .* [v2#v4] .* [v3#.] <ip> 0"
	res, err := engine.VerifyText(re.Network, q0, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != engine.Unsatisfied {
		t.Fatalf("k=0 verdict = %v, want unsatisfied", res.Verdict)
	}
	q1 := "<ip> [.#v0] .* [v2#v4] .* [v3#.] <ip> 1"
	res, err = engine.VerifyText(re.Network, q1, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != engine.Satisfied {
		t.Fatalf("k=1 verdict = %v, want satisfied", res.Verdict)
	}
	if len(res.Failed) != 1 || !res.Failed[re.Links["e4"]] {
		t.Fatalf("failed set = %v, want {e4}", res.Failed.Sorted())
	}
}

// twoHopProtected builds a chain src -> a -> b -> c -> dst where both the
// a→b and b→c hops have primary links plus protected backups via detour
// routers; using both backups in one trace needs two failed links.
func twoHopProtected(t *testing.T) (*network.Network, map[string]topology.LinkID) {
	t.Helper()
	n := network.New("two-hop-protected")
	r := map[string]topology.RouterID{}
	for _, name := range []string{"src", "a", "b", "c", "dst", "da", "db"} {
		r[name] = n.Topo.AddRouter(name)
	}
	l := map[string]topology.LinkID{}
	add := func(name, from, to string) {
		l[name] = n.Topo.MustAddLink(r[from], r[to], "o"+name, "i"+name, 1)
	}
	add("in", "src", "a")
	add("ab", "a", "b")
	add("bc", "b", "c")
	add("out", "c", "dst")
	// Detours: a -> da -> b and b -> db -> c.
	add("a-da", "a", "da")
	add("da-b", "da", "b")
	add("b-db", "b", "db")
	add("db-c", "db", "c")

	lb := map[string]labels.ID{
		"s1": n.Labels.MustIntern("s1", labels.BottomMPLS),
		"s2": n.Labels.MustIntern("s2", labels.BottomMPLS),
		"t":  n.Labels.MustIntern("t", labels.MPLS),
		"ip": n.Labels.MustIntern("ip0", labels.IP),
	}
	rt := n.Routing
	// a: primary via ab (swap s2), backup via detour (swap s2, push t).
	rt.MustAdd(l["in"], lb["s1"], 1, routing.Entry{Out: l["ab"], Ops: routing.Ops{routing.Swap(lb["s2"])}})
	rt.MustAdd(l["in"], lb["s1"], 2, routing.Entry{Out: l["a-da"], Ops: routing.Ops{routing.Swap(lb["s2"]), routing.Push(lb["t"])}})
	rt.MustAdd(l["a-da"], lb["t"], 1, routing.Entry{Out: l["da-b"], Ops: routing.Ops{routing.Pop()}})
	// b: primary via bc, backup via db.
	rt.MustAdd(l["ab"], lb["s2"], 1, routing.Entry{Out: l["bc"], Ops: nil})
	rt.MustAdd(l["ab"], lb["s2"], 2, routing.Entry{Out: l["b-db"], Ops: routing.Ops{routing.Push(lb["t"])}})
	rt.MustAdd(l["da-b"], lb["s2"], 1, routing.Entry{Out: l["bc"], Ops: nil})
	rt.MustAdd(l["da-b"], lb["s2"], 2, routing.Entry{Out: l["b-db"], Ops: routing.Ops{routing.Push(lb["t"])}})
	rt.MustAdd(l["b-db"], lb["t"], 1, routing.Entry{Out: l["db-c"], Ops: routing.Ops{routing.Pop()}})
	// c: pop and leave.
	rt.MustAdd(l["bc"], lb["s2"], 1, routing.Entry{Out: l["out"], Ops: routing.Ops{routing.Pop()}})
	rt.MustAdd(l["db-c"], lb["s2"], 1, routing.Entry{Out: l["out"], Ops: routing.Ops{routing.Pop()}})
	return n, l
}

// TestUnderApproxRescuesWitness: force the trace through the first detour
// (da). The over-approximation may propose a witness also using the second
// detour; only F={ab} is actually needed when the rest of the path uses
// primaries. With k=1 a witness through da exists (fail ab only); verify
// the engine finds it.
func TestUnderApproxRescuesWitness(t *testing.T) {
	n, l := twoHopProtected(t)
	res, err := engine.VerifyText(n, "<s1 ip> [.#a] [a#da] .* [c#.] <ip> 1", engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != engine.Satisfied {
		t.Fatalf("verdict = %v, want satisfied", res.Verdict)
	}
	if len(res.Failed) != 1 || !res.Failed[l["ab"]] {
		t.Fatalf("failed = %v, want {ab}", res.Failed.Sorted())
	}
}

// TestDoubleFailureNeedsBudgetTwo: a query forcing both detours needs two
// failed links: unsatisfiable-or-inconclusive at k=1, satisfied at k=2.
func TestDoubleFailureNeedsBudgetTwo(t *testing.T) {
	n, _ := twoHopProtected(t)
	q1 := "<s1 ip> [.#a] [a#da] .* [b#db] .* [c#.] <ip> 1"
	res, err := engine.VerifyText(n, q1, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict == engine.Satisfied {
		t.Fatalf("k=1 verdict = %v; both detours need 2 failures", res.Verdict)
	}
	q2 := "<s1 ip> [.#a] [a#da] .* [b#db] .* [c#.] <ip> 2"
	res, err = engine.VerifyText(n, q2, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != engine.Satisfied {
		t.Fatalf("k=2 verdict = %v, want satisfied", res.Verdict)
	}
	if len(res.Failed) != 2 {
		t.Fatalf("failed = %v, want 2 links", res.Failed.Sorted())
	}
}

// TestNoReductionsSameVerdicts: the reduction pass must not change answers.
func TestNoReductionsSameVerdicts(t *testing.T) {
	re := gen.RunningExample()
	for i := 0; i <= 4; i++ {
		a, err := engine.VerifyText(re.Network, phi(i), engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := engine.VerifyText(re.Network, phi(i), engine.Options{NoReductions: true})
		if err != nil {
			t.Fatal(err)
		}
		if a.Verdict != b.Verdict {
			t.Errorf("phi%d: reduced=%v unreduced=%v", i, a.Verdict, b.Verdict)
		}
	}
}

// TestBudgetExhaustion: a tiny budget must surface ErrBudget.
func TestBudgetExhaustion(t *testing.T) {
	re := gen.RunningExample()
	_, err := engine.VerifyText(re.Network, phi(0), engine.Options{Budget: 1})
	if err == nil {
		t.Fatal("expected budget error")
	}
}

// TestBruteForceAgreement cross-checks the engine against exhaustive
// enumeration of traces and failure sets on the running example.
func TestBruteForceAgreement(t *testing.T) {
	re := gen.RunningExample()
	queries := []string{
		phi(0), phi(1), phi(2), phi(3), phi(4),
		"<ip> [.#v0] .* [v3#.] <ip> 1",
		"<s40 ip> [.#v0] .* <smpls ip> 0",
		"<ip> [.#v1] .* [v3#.] <ip> 0",     // wrong entry point for ip
		"<s40 ip> [.#v0] [v0#v1] .* <.> 1", // s40 only routed via e1
		"<ip> [.#v0] . . <ip> 0",           // too short to reach v3's pop
	}
	for _, qt := range queries {
		q, err := query.Parse(qt, re.Network)
		if err != nil {
			t.Fatalf("%s: %v", qt, err)
		}
		want := bruteForceSatisfiable(re.Network, q)
		res, err := engine.Verify(re.Network, q, engine.Options{})
		if err != nil {
			t.Fatalf("%s: %v", qt, err)
		}
		switch res.Verdict {
		case engine.Satisfied:
			if !want {
				t.Errorf("%s: engine satisfied, brute force says no", qt)
			}
			checkWitness(t, re.Network, qt, res)
		case engine.Unsatisfied:
			if want {
				t.Errorf("%s: engine unsatisfied, brute force found a witness", qt)
			}
		case engine.Inconclusive:
			// Approximation may be inconclusive; never wrong, but flag it
			// so we notice if it happens on this small example.
			t.Logf("%s: inconclusive (brute force: %v)", qt, want)
		}
	}
}

// bruteForceSatisfiable enumerates failure sets |F| ≤ k and traces up to a
// length bound, checking the query regexes directly.
func bruteForceSatisfiable(net *network.Network, q *query.Query) bool {
	links := net.Topo.NumLinks()
	var subsets [][]topology.LinkID
	subsets = append(subsets, nil)
	if q.MaxFailures >= 1 {
		for i := 0; i < links; i++ {
			subsets = append(subsets, []topology.LinkID{topology.LinkID(i)})
		}
	}
	if q.MaxFailures >= 2 {
		for i := 0; i < links; i++ {
			for j := i + 1; j < links; j++ {
				subsets = append(subsets, []topology.LinkID{topology.LinkID(i), topology.LinkID(j)})
			}
		}
	}
	// Candidate initial headers: IP labels alone plus one smpls over IP —
	// the running example's Lang(a) shapes.
	var headers []labels.Header
	for _, ip := range net.Labels.OfKind(labels.IP) {
		headers = append(headers, labels.Header{ip})
		for _, s := range net.Labels.OfKind(labels.BottomMPLS) {
			headers = append(headers, labels.Header{s, ip})
		}
	}
	found := false
	for _, sub := range subsets {
		f := network.FailedSet{}
		for _, l := range sub {
			f[l] = true
		}
		for e := 0; e < links; e++ {
			if f[topology.LinkID(e)] {
				continue
			}
			for _, h := range headers {
				if !q.PreNFA.Accepts(headerSyms(h)) {
					continue
				}
				net.Enumerate(topology.LinkID(e), h, f, 7, func(tr network.Trace) bool {
					if q.PathNFA.Accepts(pathSyms(tr)) &&
						q.PostNFA.Accepts(headerSyms(tr[len(tr)-1].Header)) {
						found = true
						return false
					}
					return true
				})
				if found {
					return true
				}
			}
		}
	}
	return false
}

// TestWeightedGuidedSearchAvoidsUnder reproduces the §5 observation that
// the weighted engine's guided search (minimising Failures) finds feasible
// witnesses directly, where the unweighted search proposes an infeasible
// over-approximate witness and must fall back to the under-approximation.
// The query asks for a depth-4 label stack (a bypass tunnel around the
// service tunnel), reachable with one failure.
func TestWeightedGuidedSearchAvoidsUnder(t *testing.T) {
	s := gen.Nordunet(gen.NordOpts{Services: 1, EdgeRouters: 10, Seed: 1})
	q := "<smpls ip> .* <mpls mpls smpls ip> 1"

	unweighted, err := engine.VerifyText(s.Net, q, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := weight.Spec{{{Coeff: 1, Q: weight.Failures}}}
	weighted, err := engine.VerifyText(s.Net, q, engine.Options{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if unweighted.Verdict != engine.Satisfied || weighted.Verdict != engine.Satisfied {
		t.Fatalf("verdicts: unweighted=%v weighted=%v, want satisfied",
			unweighted.Verdict, weighted.Verdict)
	}
	if !weighted.Weight.Equal(weight.Vec{1}) {
		t.Errorf("weighted min failures = %v, want (1)", weighted.Weight)
	}
	if weighted.Stats.UnderUsed {
		t.Error("weighted engine needed the under-approximation despite guided search")
	}
	// The unweighted engine is allowed to need the fallback here (that is
	// the phenomenon); if it ever stops needing it, the OverOnly ablation
	// below still pins the behaviour difference.
	overOnly, err := engine.VerifyText(s.Net, q, engine.Options{OverOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if unweighted.Stats.UnderUsed && overOnly.Verdict != engine.Inconclusive {
		t.Errorf("over-only verdict = %v, want inconclusive when dual needed the fallback", overOnly.Verdict)
	}
}

// TestEarlyFallbackTranslatesOnce pins the uncached early-accept fallback:
// when the partial saturation's witness does not validate, the engine
// re-saturates from a fresh initial automaton of the system it already
// built instead of translating the whole network again. Each build
// computes the query's slice once, so the slice counter moves by exactly
// one slice's worth of routers. OverOnly keeps the under-approximation
// (a second, legitimate build) out of the count.
func TestEarlyFallbackTranslatesOnce(t *testing.T) {
	s := gen.Nordunet(gen.NordOpts{Services: 1, EdgeRouters: 10, Seed: 1})
	fallbacks := obs.GetCounter("engine_early_accept_fallback_total")
	kept := obs.GetCounter("translate_slice_routers_kept_total")
	f0, k0 := fallbacks.Value(), kept.Value()
	res, err := engine.VerifyText(s.Net, "<smpls? ip> .* [hel1#tam1] .* [sto1#osl2] .* <. ip> 1", engine.Options{OverOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if d := fallbacks.Value() - f0; d != 1 {
		t.Fatalf("early-accept fallbacks = %d, want 1 (verdict %v)", d, res.Verdict)
	}
	if !res.Stats.Slice.Active || res.Stats.Slice.RoutersKept == 0 {
		t.Fatalf("slice stats = %+v, want an active slice", res.Stats.Slice)
	}
	if d := kept.Value() - k0; d != int64(res.Stats.Slice.RoutersKept) {
		t.Errorf("slice routers kept grew by %d, want %d (one slice computation)", d, res.Stats.Slice.RoutersKept)
	}
}

// TestStatsPopulatedOnUnderRun pins the Stats accounting on a run known to
// consult the under-approximation (same setup as the guided-search test):
// every phase that ran must report a non-zero timing and size, including
// the under-side reconstruction that older code left untimed.
func TestStatsPopulatedOnUnderRun(t *testing.T) {
	s := gen.Nordunet(gen.NordOpts{Services: 1, EdgeRouters: 10, Seed: 1})
	res, err := engine.VerifyText(s.Net, "<smpls ip> .* <mpls mpls smpls ip> 1", engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.BuildTime <= 0 || st.OverTime <= 0 || st.ReconstructTime <= 0 {
		t.Errorf("over-side timings not populated: %+v", st)
	}
	if st.OverRules == 0 || st.TransOver == 0 {
		t.Errorf("over-side sizes not populated: %+v", st)
	}
	if !st.UnderUsed {
		t.Skip("unweighted run no longer needs the under-approximation; phenomenon gone")
	}
	if st.UnderTime <= 0 {
		t.Errorf("UnderTime = %v on a run that used the under engine", st.UnderTime)
	}
	if st.UnderRules == 0 || st.TransUnder == 0 {
		t.Errorf("under-side sizes not populated: %+v", st)
	}
}
