package pds

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"aalwines/internal/nfa"
)

// randomIndexedPDS returns a PDS with random rules. With sorted set, every
// state's rules are emitted in ascending symbol order, as translation
// emits them; otherwise the rule order is random, which exercises the
// re-sorted by-head copy. Some states and symbols get no rules at all.
func randomIndexedPDS(rng *rand.Rand, sorted bool) *PDS {
	p := New(1+rng.Intn(12), 1+rng.Intn(20))
	n := rng.Intn(120)
	for i := 0; i < n; i++ {
		r := Rule{
			FromState: State(rng.Intn(p.NumStates)),
			FromSym:   Sym(rng.Intn(p.NumSyms)),
			ToState:   State(rng.Intn(p.NumStates)),
			Sym1:      Sym(rng.Intn(p.NumSyms)),
			Sym2:      Sym(rng.Intn(p.NumSyms)),
			Kind:      RuleKind(rng.Intn(3)),
			Tag:       int32(i),
		}
		p.Rules = append(p.Rules, r)
	}
	if sorted {
		slices.SortStableFunc(p.Rules, func(a, b Rule) int { return int(a.FromSym) - int(b.FromSym) })
	}
	return p
}

// bruteHeads lists the indices of the rules headed at ⟨s,γ⟩ in ascending
// order by scanning every rule.
func bruteHeads(p *PDS, s State, g Sym) []int32 {
	var out []int32
	for i, r := range p.Rules {
		if r.FromState == s && r.FromSym == g {
			out = append(out, int32(i))
		}
	}
	return out
}

// TestHeadIndexMatchesBruteForce checks RulesFrom and matchRules against
// a brute-force filter on random systems, for present heads, absent
// symbols (including ones past the alphabet) and rule-less states, on
// both the aliased (sorted emission) and the re-sorted index.
func TestHeadIndexMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	resorted := 0
	for iter := 0; iter < 400; iter++ {
		sorted := iter%2 == 0
		p := randomIndexedPDS(rng, sorted)
		p.Freeze()
		if len(p.Rules) > 0 {
			aliased := &p.headIdx[0] == &p.stateIdx[0]
			if sorted && !aliased {
				t.Fatalf("iter %d: sorted emission got a re-sorted copy", iter)
			}
			if !aliased {
				resorted++
			}
		}
		a := NewAuto(p)
		set := nfa.NewSet(p.NumSyms)
		for x := 0; x < p.NumSyms; x += 1 + rng.Intn(3) {
			set.Add(nfa.Sym(x))
		}
		v := a.VirtualSym(set)
		var ma matchArena
		for s := 0; s < p.NumStates; s++ {
			st := State(s)
			var byState []int32
			for i, r := range p.Rules {
				if r.FromState == st {
					byState = append(byState, int32(i))
				}
			}
			if got := p.RulesFromState(st); !slices.Equal(got, byState) {
				t.Fatalf("iter %d: RulesFromState(%d) = %v, want %v", iter, s, got, byState)
			}
			for g := 0; g < p.NumSyms+2; g++ {
				want := bruteHeads(p, st, Sym(g))
				if got := p.RulesFrom(st, Sym(g)); !slices.Equal(got, want) {
					t.Fatalf("iter %d sorted=%v: RulesFrom(%d,%d) = %v, want %v", iter, sorted, s, g, got, want)
				}
				if g >= p.NumSyms {
					continue // the automaton's virtual symbols start here
				}
				got, probes := matchRules(p, a, st, Sym(g), &ma)
				if !slices.Equal(got, want) || probes != int64(len(want)) {
					t.Fatalf("iter %d: matchRules(%d,%d) = %v (%d probes), want %v", iter, s, g, got, probes, want)
				}
			}
			var want []int32
			for _, ri := range byState {
				if set.Has(nfa.Sym(p.Rules[ri].FromSym)) {
					want = append(want, ri)
				}
			}
			got, probes := matchRules(p, a, st, v, &ma)
			if !slices.Equal(got, want) || probes != int64(len(byState)) {
				t.Fatalf("iter %d: matchRules(%d, set) = %v (%d probes), want %v (%d)", iter, s, got, probes, want, len(byState))
			}
		}
	}
	if resorted == 0 {
		t.Fatal("no system took the re-sorted index path")
	}
}

// TestHeadIndexConcurrentReaders reads one frozen PDS from several
// goroutines; under -race it proves lookups never write to the index.
func TestHeadIndexConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := randomIndexedPDS(rng, false)
	for len(p.Rules) == 0 {
		p = randomIndexedPDS(rng, false)
	}
	p.Freeze()
	a := NewAuto(p)
	v := a.VirtualSym(nfa.FullSet(p.NumSyms))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ma matchArena
			for s := 0; s < p.NumStates; s++ {
				for g := 0; g <= p.NumSyms; g++ {
					if got, want := p.RulesFrom(State(s), Sym(g)), bruteHeads(p, State(s), Sym(g)); !slices.Equal(got, want) {
						t.Errorf("RulesFrom(%d,%d) = %v, want %v", s, g, got, want)
					}
					if g < p.NumSyms {
						matchRules(p, a, State(s), Sym(g), &ma)
					}
				}
				matchRules(p, a, State(s), v, &ma)
			}
		}()
	}
	wg.Wait()
}

// memoSystem builds a one-control-state system whose initial automaton
// accepts ⟨0, x·⊥⟩ for x in the set {sym} (interned as the automaton's
// first virtual symbol, so two such systems share its id), plus the final
// spec "0·⊥" and a rule rewriting 1 to 0.
func memoSystem(sym Sym) (*PDS, *Auto, SatOptions) {
	const bot = 2
	p := New(1, 3)
	p.AddRule(Rule{FromState: 0, FromSym: 1, ToState: 0, Kind: SwapRule, Sym1: 0})
	p.Freeze()
	a := NewAuto(p)
	v := a.VirtualSym(nfa.SetOf(3, nfa.Sym(sym)))
	q1, q2 := a.AddState(), a.AddState()
	a.AddEdge(0, v, q1)
	a.AddEdge(q1, bot, q2)
	a.SetAccept(q2, true)
	spec := exactSpec(3, []Sym{0, bot})
	return p, a, SatOptions{EarlyAccept: true, FinalStates: []State{0}, FinalSpec: spec}
}

// dumpAuto renders a result's automaton and early-accept flag.
func dumpAuto(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "early=%v states=%d trans=%d\n", r.EarlyAccepted, r.Auto.NumStates(), r.Auto.NumTrans())
	for s := 0; s < r.Auto.NumStates(); s++ {
		for _, e := range r.Auto.Out(State(s)) {
			fmt.Fprintf(&b, "%d -%d-> %d\n", s, e.Sym, e.To)
		}
	}
	return b.String()
}

// TestEarlyAcceptMemoNotStale runs two post* saturations on one scratch,
// reset between them as the pool does. Both systems intern a different
// set under the same virtual symbol id: the first accepts at once (its
// set meets the spec's first arc), the second must not, since its set is
// disjoint from that arc. The second run must equal a run on a fresh
// scratch, so the intersection memo cannot leak across runs.
func TestEarlyAcceptMemoNotStale(t *testing.T) {
	for _, order := range [][2]Sym{{0, 1}, {1, 0}} {
		sc := &satScratch{}
		p1, a1, o1 := memoSystem(order[0])
		if _, err := poststarWith(p1, a1, o1, sc); err != nil {
			t.Fatal(err)
		}
		sc.reset()
		p2, a2, o2 := memoSystem(order[1])
		got, err := poststarWith(p2, a2, o2, sc)
		if err != nil {
			t.Fatal(err)
		}
		p3, a3, o3 := memoSystem(order[1])
		want, err := poststarWith(p3, a3, o3, &satScratch{})
		if err != nil {
			t.Fatal(err)
		}
		if g, w := dumpAuto(got), dumpAuto(want); g != w {
			t.Errorf("sets %v: reused scratch gave\n%s\nfresh scratch gave\n%s", order, g, w)
		}
		if got.EarlyAccepted != (order[1] == 0) {
			t.Errorf("sets %v: EarlyAccepted = %v", order, got.EarlyAccepted)
		}
	}
}

// TestInterMemoMatchesIntersects checks the memo against direct
// intersection over every (virtual symbol, spec arc) pair, before and
// after it is filled.
func TestInterMemoMatchesIntersects(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 40
	p := New(1, n)
	a := NewAuto(p)
	var sets []*nfa.Set
	for i := 0; i < 6; i++ {
		s := nfa.NewSet(n)
		for j := 0; j < 3; j++ {
			s.Add(nfa.Sym(rng.Intn(n)))
		}
		if int(a.VirtualSym(s))-n == len(sets) {
			sets = append(sets, s)
		}
	}
	spec := nfa.New(n)
	for i := 0; i < 4; i++ {
		spec.AddState()
	}
	for k := 0; k < 12; k++ {
		s := nfa.NewSet(n)
		s.Add(nfa.Sym(rng.Intn(n)))
		spec.AddArc(rng.Intn(spec.NumStates()), s, rng.Intn(spec.NumStates()))
	}
	sc := &satScratch{}
	sc.initInterMemo(a, spec)
	for pass := 0; pass < 2; pass++ {
		for v, set := range sets {
			for st := 0; st < spec.NumStates(); st++ {
				for k, arc := range spec.Arcs(st) {
					if got, want := sc.meets(v, set, st, k, arc), set.Intersects(arc.Set); got != want {
						t.Fatalf("pass %d: meets(v%d, state %d arc %d) = %v, want %v", pass, v, st, k, got, want)
					}
				}
			}
		}
	}
	sc.reset()
	if len(sc.interMemo) != 0 || slices.ContainsFunc(sc.interMemo[:cap(sc.interMemo)], func(m uint8) bool { return m != memoUnknown }) {
		t.Fatalf("reset left memo %v", sc.interMemo[:cap(sc.interMemo)])
	}
}
