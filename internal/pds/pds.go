// Package pds implements pushdown systems and the P-automaton saturation
// algorithms that decide reachability between regular sets of
// configurations: post* and pre* (Bouajjani–Esparza–Maler 1997; the
// worklist formulations follow Schwoon's thesis, 2002). Transitions carry
// witness records from which the engine reconstructs the rule sequence —
// and hence the network trace — that justifies reachability.
//
// The weighted generalisation (Reps–Schwoon–Jha–Melski 2005) used by the
// quantitative engine lives in internal/wpds and shares these types.
package pds

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// State is a control state of the pushdown system, or an extra state of a
// P-automaton. Control states are the dense range [0, NumStates).
type State int32

// Sym is a stack symbol. The value Eps marks epsilon transitions inside
// P-automata; it is never a real stack symbol.
type Sym uint32

// Eps is the pseudo-symbol of epsilon transitions in P-automata.
const Eps Sym = ^Sym(0)

// RuleKind distinguishes the three normalised rule shapes.
type RuleKind uint8

const (
	// PopRule is ⟨p,γ⟩ ↪ ⟨p′,ε⟩.
	PopRule RuleKind = iota
	// SwapRule is ⟨p,γ⟩ ↪ ⟨p′,γ′⟩.
	SwapRule
	// PushRule is ⟨p,γ⟩ ↪ ⟨p′,γ′γ″⟩ where γ′ is the new top of stack.
	PushRule
)

// WeightID refers to a weight vector in a PDS's weight table. NoWeight
// means the semiring one (no cost).
type WeightID uint32

// NoWeight is the WeightID of a rule without a weight vector.
const NoWeight WeightID = 0

// Rule is a normalised pushdown rule. Weight refers to the rule's weight
// vector in the lexicographic min-plus semiring, stored in the owning PDS's
// weight table (see PDS.Weight); the unweighted algorithms ignore it. Tag
// is an opaque reference for the translator: it identifies the
// network-level action the rule encodes so witness rule sequences can be
// replayed into traces.
//
// A Rule is 32 bytes and holds no pointer, so a paper-scale rule array
// (over half a million rules) is a single no-scan allocation that the
// garbage collector never has to trace.
type Rule struct {
	FromState State
	FromSym   Sym
	ToState   State
	Sym1      Sym // swap: the new top; push: the new top γ′
	Sym2      Sym // push only: the symbol below the new top γ″
	Tag       int32
	Weight    WeightID
	Kind      RuleKind
}

// String renders the rule for diagnostics.
func (r Rule) String() string {
	switch r.Kind {
	case PopRule:
		return fmt.Sprintf("<%d,%d> -> <%d,eps>", r.FromState, r.FromSym, r.ToState)
	case SwapRule:
		return fmt.Sprintf("<%d,%d> -> <%d,%d>", r.FromState, r.FromSym, r.ToState, r.Sym1)
	default:
		return fmt.Sprintf("<%d,%d> -> <%d,%d %d>", r.FromState, r.FromSym, r.ToState, r.Sym1, r.Sym2)
	}
}

// PDS is a pushdown system: a number of control states, a stack alphabet
// size and a rule set.
type PDS struct {
	NumStates int
	NumSyms   int
	Rules     []Rule

	// Weight table: weights[(id-1)*weightDim : id*weightDim] is the vector
	// of WeightID id. One flat array keeps rules pointer-free without a
	// slice header per weighted rule.
	weights   []uint64
	weightDim int

	// Packed rule indexes, built by Freeze or lazily on first use. Both
	// are CSR segments over one offset array: stateIdx[stateOff[s]:
	// stateOff[s+1]] lists the rules headed at state s in ascending rule
	// order; headIdx over the same range lists them ordered by (symbol,
	// rule index), with headSym holding each entry's head symbol, so the
	// rules of one head ⟨s,γ⟩ are a contiguous run found by binary search.
	// Translation emits every state's rules in ascending symbol order, so
	// headIdx normally aliases stateIdx; only a PDS with an unsorted
	// segment (Moped import, hand-built tests) gets a re-sorted copy.
	stateOff []int32
	stateIdx []int32
	headIdx  []int32
	headSym  []Sym
}

// New returns an empty PDS with the given control state count and stack
// alphabet size.
func New(numStates, numSyms int) *PDS {
	return &PDS{NumStates: numStates, NumSyms: numSyms}
}

// AddState appends a fresh control state and returns it.
func (p *PDS) AddState() State {
	p.NumStates++
	p.dropIndex()
	return State(p.NumStates - 1)
}

// AddRule appends a rule. The head must be a valid (state, symbol) pair.
func (p *PDS) AddRule(r Rule) {
	if int(r.FromState) >= p.NumStates || int(r.ToState) >= p.NumStates {
		panic(fmt.Sprintf("pds: rule %v references state outside [0,%d)", r, p.NumStates))
	}
	if int(r.FromSym) >= p.NumSyms {
		panic(fmt.Sprintf("pds: rule %v references symbol outside [0,%d)", r, p.NumSyms))
	}
	p.Rules = append(p.Rules, r)
	p.dropIndex()
}

// dropIndex discards the rule indexes after a mutation; the next lookup
// (or Freeze) rebuilds them.
func (p *PDS) dropIndex() {
	p.stateOff, p.stateIdx, p.headIdx, p.headSym = nil, nil, nil, nil
}

// AddWeight appends a weight vector to the weight table and returns its id.
// An empty vector is the semiring one and maps to NoWeight. All vectors of
// one PDS share a dimension.
func (p *PDS) AddWeight(w []uint64) WeightID {
	if len(w) == 0 {
		return NoWeight
	}
	if p.weightDim == 0 {
		p.weightDim = len(w)
	} else if len(w) != p.weightDim {
		panic(fmt.Sprintf("pds: weight %v has dimension %d, table has %d", w, len(w), p.weightDim))
	}
	p.weights = append(p.weights, w...)
	return WeightID(len(p.weights) / p.weightDim)
}

// Weight returns the vector of a weight id; nil for NoWeight. The slice is
// shared with the table and must not be modified.
func (p *PDS) Weight(id WeightID) []uint64 {
	if id == NoWeight {
		return nil
	}
	hi := int(id) * p.weightDim
	return p.weights[hi-p.weightDim : hi : hi]
}

// NumWeights returns the number of vectors in the weight table; the ids in
// use are 1..NumWeights.
func (p *PDS) NumWeights() int {
	if p.weightDim == 0 {
		return 0
	}
	return len(p.weights) / p.weightDim
}

// ReserveRules pre-sizes the rule slice for about n rules. Translation
// counts the rules it will emit before emitting them; reserving once
// avoids the append-doubling churn that dominated build allocations at
// paper scale.
func (p *PDS) ReserveRules(n int) {
	if cap(p.Rules) >= n {
		return
	}
	rules := make([]Rule, len(p.Rules), n)
	copy(rules, p.Rules)
	p.Rules = rules
}

// Filter keeps the rules for which keep(i, &Rules[i]) returns true,
// preserving their order, and drops the rule indexes built over the old
// rule list. The weight table is kept: surviving rules still refer to it.
func (p *PDS) Filter(keep func(i int, r *Rule) bool) {
	kept := p.Rules[:0]
	for i := range p.Rules {
		if keep(i, &p.Rules[i]) {
			kept = append(kept, p.Rules[i])
		}
	}
	p.Rules = kept
	p.dropIndex()
}

// Freeze eagerly builds the rule indexes. A PDS shared by concurrent
// readers (several saturations over one translated system) must be frozen
// first: RulesFromState and RulesFrom otherwise build their indexes lazily
// on first use, which is a data race when two saturators hit the same cold
// index. AddState, AddRule and Filter after Freeze re-enter the lazy
// regime.
func (p *PDS) Freeze() {
	if p.stateOff == nil {
		p.buildIndex()
	}
}

// buildIndex builds the by-state CSR — counting pass, prefix sums, then a
// fill pass in rule order, which keeps each state's segment ascending —
// and derives the by-head order from it. No hash map is involved: a
// head's rules are found inside its state's segment by binary search over
// headSym.
func (p *PDS) buildIndex() {
	off := make([]int32, p.NumStates+1)
	for i := range p.Rules {
		off[p.Rules[i].FromState+1]++
	}
	for s := 0; s < p.NumStates; s++ {
		off[s+1] += off[s]
	}
	idx := make([]int32, len(p.Rules))
	cur := make([]int32, p.NumStates)
	copy(cur, off[:p.NumStates])
	for i := range p.Rules {
		f := p.Rules[i].FromState
		idx[cur[f]] = int32(i)
		cur[f]++
	}
	syms := make([]Sym, len(idx))
	sorted := true
	for s := 0; s < p.NumStates; s++ {
		for i := off[s]; i < off[s+1]; i++ {
			syms[i] = p.Rules[idx[i]].FromSym
			if i > off[s] && syms[i] < syms[i-1] {
				sorted = false
			}
		}
	}
	head := idx
	if !sorted {
		head = p.sortedHeads(off, idx, syms)
	}
	p.stateOff, p.stateIdx, p.headIdx, p.headSym = off, idx, head, syms
}

// sortedHeads returns a copy of the by-state array with every segment
// ordered by (symbol, rule index), and rewrites syms to match. Segments
// already in order are copied as they are.
func (p *PDS) sortedHeads(off, idx []int32, syms []Sym) []int32 {
	head := slices.Clone(idx)
	for s := 0; s+1 < len(off); s++ {
		seg := head[off[s]:off[s+1]]
		if slices.IsSorted(syms[off[s]:off[s+1]]) {
			continue
		}
		slices.SortFunc(seg, func(a, b int32) int {
			if c := cmp.Compare(p.Rules[a].FromSym, p.Rules[b].FromSym); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		for i, ri := range seg {
			syms[int(off[s])+i] = p.Rules[ri].FromSym
		}
	}
	return head
}

// RulesFromState returns the indices of rules whose head state is s, in
// ascending rule order; used when matching rules against symbol-set
// transitions.
func (p *PDS) RulesFromState(s State) []int32 {
	if p.stateOff == nil {
		p.buildIndex()
	}
	return p.stateIdx[p.stateOff[s]:p.stateOff[s+1]]
}

// RulesFrom returns the indices of rules with head ⟨s,γ⟩, in ascending
// rule order: the run of γ inside s's by-head segment, located by two
// binary searches (lower and upper bound) over the segment's symbols.
func (p *PDS) RulesFrom(s State, g Sym) []int32 {
	if p.stateOff == nil {
		p.buildIndex()
	}
	lo, hi := int(p.stateOff[s]), int(p.stateOff[s+1])
	syms := p.headSym
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if syms[m] < g {
			lo = m + 1
		} else {
			hi = m
		}
	}
	end := lo
	for hi = int(p.stateOff[s+1]); end < hi; {
		m := int(uint(end+hi) >> 1)
		if syms[m] <= g {
			end = m + 1
		} else {
			hi = m
		}
	}
	return p.headIdx[lo:end]
}

// Stats summarises a PDS for diagnostics and the reduction reports.
type Stats struct {
	States, Syms, Rules int
	Pop, Swap, Push     int
}

// Stats returns rule counts by kind.
func (p *PDS) Stats() Stats {
	st := Stats{States: p.NumStates, Syms: p.NumSyms, Rules: len(p.Rules)}
	for _, r := range p.Rules {
		switch r.Kind {
		case PopRule:
			st.Pop++
		case SwapRule:
			st.Swap++
		case PushRule:
			st.Push++
		}
	}
	return st
}

// Config is a pushdown configuration ⟨p, w⟩ with w written top-first.
type Config struct {
	State State
	Stack []Sym
}

// String renders the configuration.
func (c Config) String() string {
	syms := make([]string, len(c.Stack))
	for i, s := range c.Stack {
		syms[i] = fmt.Sprintf("%d", s)
	}
	return fmt.Sprintf("<%d; %v>", c.State, syms)
}

// Step applies one rule to a configuration if its head matches; ok reports
// whether it applied. Used by tests and by witness replay.
func (c Config) Step(r Rule) (Config, bool) {
	if len(c.Stack) == 0 || c.State != r.FromState || c.Stack[0] != r.FromSym {
		return Config{}, false
	}
	rest := c.Stack[1:]
	switch r.Kind {
	case PopRule:
		return Config{State: r.ToState, Stack: rest}, true
	case SwapRule:
		st := make([]Sym, 0, len(rest)+1)
		st = append(st, r.Sym1)
		st = append(st, rest...)
		return Config{State: r.ToState, Stack: st}, true
	case PushRule:
		st := make([]Sym, 0, len(rest)+2)
		st = append(st, r.Sym1, r.Sym2)
		st = append(st, rest...)
		return Config{State: r.ToState, Stack: st}, true
	}
	return Config{}, false
}

// SortRulesDeterministic orders the rule slice for reproducible output;
// used by the Moped text exporter and tests.
func SortRulesDeterministic(rules []Rule) {
	sort.Slice(rules, func(i, j int) bool {
		a, b := rules[i], rules[j]
		if a.FromState != b.FromState {
			return a.FromState < b.FromState
		}
		if a.FromSym != b.FromSym {
			return a.FromSym < b.FromSym
		}
		if a.ToState != b.ToState {
			return a.ToState < b.ToState
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Sym1 != b.Sym1 {
			return a.Sym1 < b.Sym1
		}
		return a.Sym2 < b.Sym2
	})
}
