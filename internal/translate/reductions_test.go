package translate

import (
	"math/rand"
	"reflect"
	"testing"

	"aalwines/internal/gen"
	"aalwines/internal/network"
	"aalwines/internal/nfa"
	"aalwines/internal/pds"
	"aalwines/internal/query"
	"aalwines/internal/weight"
)

// The worklist reduction must keep exactly the rules a round-robin
// fixpoint keeps. passReduce below is that formulation, kept as the test
// oracle: per-state map-backed top-of-stack sets, re-evaluated over every
// rule until a pass changes nothing.

// oracleSet is the oracle's lattice value: an explicit small symbol set
// or ⊤.
type oracleSet struct {
	all bool
	m   map[pds.Sym]struct{}
}

func (t *oracleSet) has(s pds.Sym) bool {
	if t.all {
		return true
	}
	_, ok := t.m[s]
	return ok
}

func (t *oracleSet) add(s pds.Sym) bool {
	if t.all {
		return false
	}
	if t.m == nil {
		t.m = make(map[pds.Sym]struct{})
	}
	if _, ok := t.m[s]; ok {
		return false
	}
	t.m[s] = struct{}{}
	if len(t.m) > topThreshold {
		t.all = true
		t.m = nil
	}
	return true
}

func (t *oracleSet) addSet(set *nfa.Set) bool {
	if t.all {
		return false
	}
	if set.Len() > topThreshold {
		t.all = true
		t.m = nil
		return true
	}
	changed := false
	set.Each(func(x nfa.Sym) bool {
		if t.add(pds.Sym(x)) {
			changed = true
		}
		return !t.all
	})
	return changed || t.all
}

func (t *oracleSet) unionInto(dst *oracleSet) bool {
	if t.all {
		if dst.all {
			return false
		}
		dst.all = true
		dst.m = nil
		return true
	}
	changed := false
	for s := range t.m {
		if dst.add(s) {
			changed = true
		}
	}
	return changed
}

// passReduce is the round-robin reduction over the same seeds.
func passReduce(p *pds.PDS, sd topSeeds) {
	tops := make([]oracleSet, p.NumStates)
	for _, st := range sd.entry {
		for _, fs := range sd.first {
			tops[st].addSet(fs)
		}
	}
	var below oracleSet
	for _, set := range sd.below {
		below.addSet(set)
	}
	below.add(sd.bot)
	for changed := true; changed; {
		changed = false
		for i := range p.Rules {
			r := &p.Rules[i]
			if !tops[r.FromState].has(r.FromSym) {
				continue
			}
			switch r.Kind {
			case pds.SwapRule:
				if tops[r.ToState].add(r.Sym1) {
					changed = true
				}
			case pds.PushRule:
				if tops[r.ToState].add(r.Sym1) {
					changed = true
				}
				if below.add(r.Sym2) {
					changed = true
				}
			case pds.PopRule:
				if below.unionInto(&tops[r.ToState]) {
					changed = true
				}
			}
		}
	}
	p.Filter(func(_ int, r *pds.Rule) bool { return tops[r.FromState].has(r.FromSym) })
}

// copyPDS returns an unindexed copy of p's states and rules.
func copyPDS(p *pds.PDS) *pds.PDS {
	c := pds.New(p.NumStates, p.NumSyms)
	c.Rules = append([]pds.Rule(nil), p.Rules...)
	return c
}

// sameReduction runs both reductions on copies of p and fails unless they
// keep the same rule list; it returns that list.
func sameReduction(t *testing.T, ctx string, p *pds.PDS, sd topSeeds) []pds.Rule {
	t.Helper()
	got, want := copyPDS(p), copyPDS(p)
	pruneUnreachable(got, sd)
	passReduce(want, sd)
	if !reflect.DeepEqual(got.Rules, want.Rules) {
		t.Fatalf("%s: worklist kept %d rules, pass-based oracle %d", ctx, len(got.Rules), len(want.Rules))
	}
	return got.Rules
}

// symbolOrdered reports whether every state's rules appear in ascending
// head-symbol order, which lets the head index share the by-state array;
// otherwise it returns a state that breaks the order.
func symbolOrdered(p *pds.PDS) (pds.State, bool) {
	last := make(map[pds.State]pds.Sym)
	for _, r := range p.Rules {
		if g, ok := last[r.FromState]; ok && r.FromSym < g {
			return r.FromState, false
		}
		last[r.FromState] = r.FromSym
	}
	return 0, true
}

// TestReduceMatchesPassOracle compares the two reductions on every
// built-in network and its query corpus, in both directions, weighted and
// unweighted, sliced and unsliced, and checks that Build's reduced rule
// list is the one both compute. It also checks that emission orders each
// state's rules by symbol.
func TestReduceMatchesPassOracle(t *testing.T) {
	re := gen.RunningExample()
	zoo := gen.Zoo(gen.ZooOpts{Routers: 30, Seed: 1, Protection: true})
	nord := gen.Nordunet(gen.NordOpts{Services: 2, EdgeRouters: 10, Seed: 1})
	type corpus struct {
		name  string
		net   *network.Network
		texts []string
	}
	corpora := []corpus{{"running-example", re.Network, []string{
		"<ip> [.#v0] .* [v3#.] <ip> 0",
		"<ip> [.#v0] [^v2#v3]* [v3#.] <ip> 2",
		"<s40 ip> [.#v0] .* [v3#.] <smpls ip> 0",
		"<s40 ip> [.#v0] .* [v3#.] <mpls+ smpls ip> 1",
		"<smpls? ip> [.#v0] . . . .* [v3#.] <smpls? ip> 1",
		"<ip> [.#v0] .* [v2#v4] .* [v3#.] <ip> 1",
	}}, {"zoo", zoo.Net, nil}, {"nordunet", nord.Net, nil}}
	for _, q := range zoo.Queries(12, 1) {
		corpora[1].texts = append(corpora[1].texts, q.Text)
	}
	for _, q := range nord.Table1Queries() {
		corpora[2].texts = append(corpora[2].texts, q.Text)
	}
	spec, err := weight.ParseSpec("Hops, Failures")
	if err != nil {
		t.Fatal(err)
	}
	pruned := 0
	for _, c := range corpora {
		for _, text := range c.texts {
			q, err := query.Parse(text, c.net)
			if err != nil {
				t.Fatalf("%s %q: %v", c.name, text, err)
			}
			for _, mode := range []Mode{Over, Under} {
				for _, sp := range []weight.Spec{nil, spec} {
					for _, sliced := range []bool{false, true} {
						opts := Options{Mode: mode, Spec: sp, Slice: sliced, NoReductions: true}
						full := Build(c.net, q, opts)
						if s, ok := symbolOrdered(full.PDS); !ok {
							t.Errorf("%s %q: state %d's rules are not emitted in ascending symbol order", c.name, text, s)
						}
						sd := (&builder{System: full, pathNFA: q.PathNFA}).topSeeds()
						kept := sameReduction(t, c.name+" "+text, full.PDS, sd)
						opts.NoReductions = false
						if built := Build(c.net, q, opts); !reflect.DeepEqual(built.PDS.Rules, kept) {
							t.Fatalf("%s %q mode=%d weighted=%v sliced=%v: Build kept %d rules, reduction %d",
								c.name, text, mode, sp != nil, sliced, len(built.PDS.Rules), len(kept))
						}
						pruned += len(full.PDS.Rules) - len(kept)
					}
				}
			}
		}
	}
	if pruned == 0 {
		t.Fatal("the corpus pruned no rule; the comparison is vacuous")
	}
}

// TestReduceWidening forces ⊤ on a control state and on the global below
// set. State 1 sees 200 symbols, so its rules on any symbol are kept;
// state 2 sees exactly topThreshold symbols, so its rule on one more is
// pruned. Pushes put more than topThreshold symbols below, so the target
// of a later pop sees every symbol too.
func TestReduceWidening(t *testing.T) {
	const syms = 400
	p := pds.New(6, syms)
	for g := 0; g < 200; g++ {
		p.AddRule(pds.Rule{FromState: 0, FromSym: 0, ToState: 1, Kind: pds.SwapRule, Sym1: pds.Sym(g)})
	}
	for g := 0; g < topThreshold; g++ {
		p.AddRule(pds.Rule{FromState: 0, FromSym: 0, ToState: 2, Kind: pds.SwapRule, Sym1: pds.Sym(g)})
	}
	p.AddRule(pds.Rule{FromState: 1, FromSym: 350, ToState: 3, Kind: pds.SwapRule, Sym1: 1})
	p.AddRule(pds.Rule{FromState: 2, FromSym: 5, ToState: 3, Kind: pds.SwapRule, Sym1: 2})
	p.AddRule(pds.Rule{FromState: 2, FromSym: 300, ToState: 3, Kind: pds.SwapRule, Sym1: 3})
	p.AddRule(pds.Rule{FromState: 3, FromSym: 1, ToState: 4, Kind: pds.PopRule})
	for g := 0; g < 200; g++ {
		p.AddRule(pds.Rule{FromState: 1, FromSym: pds.Sym(g), ToState: 3, Kind: pds.PushRule, Sym1: 1, Sym2: pds.Sym(g)})
	}
	p.AddRule(pds.Rule{FromState: 4, FromSym: 399, ToState: 5, Kind: pds.SwapRule, Sym1: 0})
	p.AddRule(pds.Rule{FromState: 5, FromSym: 7, ToState: 0, Kind: pds.SwapRule, Sym1: 0})
	sd := topSeeds{entry: []pds.State{0}, first: []*nfa.Set{nfa.SetOf(syms, 0)}, bot: syms - 2}
	kept := sameReduction(t, "widening", p, sd)
	has := func(from pds.State, g pds.Sym) bool {
		for _, r := range kept {
			if r.FromState == from && r.FromSym == g {
				return true
			}
		}
		return false
	}
	for _, c := range []struct {
		from pds.State
		g    pds.Sym
		want bool
	}{{1, 350, true}, {2, 5, true}, {2, 300, false}, {4, 399, true}, {5, 7, false}} {
		if has(c.from, c.g) != c.want {
			t.Errorf("rule headed ⟨%d,%d⟩ kept = %v, want %v", c.from, c.g, !c.want, c.want)
		}
	}
}

// TestReduceEntryRevisit re-derives every symbol of an entry state's
// first-symbol set through its own rules. The state must keep exactly
// those 100 symbols, not count them twice and widen, so its rule on a
// symbol it never sees is pruned.
func TestReduceEntryRevisit(t *testing.T) {
	const syms = 200
	p := pds.New(2, syms)
	first := nfa.NewSet(syms)
	for g := 0; g < 100; g++ {
		first.Add(nfa.Sym(g))
		p.AddRule(pds.Rule{FromState: 0, FromSym: pds.Sym(g), ToState: 0, Kind: pds.SwapRule, Sym1: pds.Sym(g)})
	}
	p.AddRule(pds.Rule{FromState: 0, FromSym: 150, ToState: 1, Kind: pds.SwapRule, Sym1: 0})
	sd := topSeeds{entry: []pds.State{0, 0}, first: []*nfa.Set{first}, bot: syms - 1}
	if kept := sameReduction(t, "entry revisit", p, sd); len(kept) != 100 {
		t.Fatalf("kept %d rules, want the 100 self-loops", len(kept))
	}
}

// TestReducePopBeforeBelowGrows fires a pop rule before the global below
// set gains its last symbol: the pop target must still see that symbol,
// so its rule on it is kept, while its rule on a symbol never pushed is
// pruned.
func TestReducePopBeforeBelowGrows(t *testing.T) {
	const a, b, c, d, z, bot = 0, 1, 2, 3, 4, 5
	p := pds.New(6, 6)
	p.AddRule(pds.Rule{FromState: 0, FromSym: a, ToState: 2, Kind: pds.PopRule})
	p.AddRule(pds.Rule{FromState: 0, FromSym: a, ToState: 3, Kind: pds.SwapRule, Sym1: b})
	p.AddRule(pds.Rule{FromState: 3, FromSym: b, ToState: 4, Kind: pds.PushRule, Sym1: c, Sym2: d})
	p.AddRule(pds.Rule{FromState: 2, FromSym: d, ToState: 5, Kind: pds.SwapRule, Sym1: a})
	p.AddRule(pds.Rule{FromState: 2, FromSym: z, ToState: 5, Kind: pds.SwapRule, Sym1: a})
	p.AddRule(pds.Rule{FromState: 2, FromSym: bot, ToState: 1, Kind: pds.SwapRule, Sym1: a})
	sd := topSeeds{entry: []pds.State{0}, first: []*nfa.Set{nfa.SetOf(6, a)}, bot: bot}
	kept := sameReduction(t, "pop first", p, sd)
	want := []pds.Rule{p.Rules[0], p.Rules[1], p.Rules[2], p.Rules[3], p.Rules[5]}
	if !reflect.DeepEqual(kept, want) {
		t.Fatalf("kept %v, want %v", kept, want)
	}
}

// TestReduceRandomSystems compares the reductions on random systems over
// alphabets large enough for some states, and sometimes below, to widen.
func TestReduceRandomSystems(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	widened := 0
	for iter := 0; iter < 60; iter++ {
		syms := 20 + rng.Intn(300)
		p := pds.New(2+rng.Intn(30), syms)
		for i := rng.Intn(3000); i > 0; i-- {
			p.AddRule(pds.Rule{
				FromState: pds.State(rng.Intn(p.NumStates)),
				FromSym:   pds.Sym(rng.Intn(syms)),
				ToState:   pds.State(rng.Intn(p.NumStates)),
				Sym1:      pds.Sym(rng.Intn(syms)),
				Sym2:      pds.Sym(rng.Intn(syms)),
				Kind:      pds.RuleKind(rng.Intn(3)),
			})
		}
		first := nfa.NewSet(syms)
		for i := 1 + rng.Intn(4); i > 0; i-- {
			first.Add(nfa.Sym(rng.Intn(syms)))
		}
		sd := topSeeds{entry: []pds.State{0, 1}, first: []*nfa.Set{first}, below: []*nfa.Set{first}, bot: pds.Sym(syms - 1)}
		sameReduction(t, "random", p, sd)
		ta := newTopAnalysis(copyPDS(p))
		for _, s := range sd.entry {
			for _, set := range sd.first {
				ta.addSet(s, set)
			}
		}
		ta.add(ta.belowCell(), sd.bot)
		ta.drain()
		for _, cl := range ta.cells {
			if cl.top {
				widened++
				break
			}
		}
	}
	if widened == 0 {
		t.Fatal("no random system widened a state to ⊤")
	}
}
