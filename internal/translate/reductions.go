package translate

import (
	"aalwines/internal/nfa"
	"aalwines/internal/pds"
	"aalwines/internal/topology"
)

// topThreshold bounds the size of explicitly tracked top-of-stack sets;
// beyond it the analysis widens to ⊤ (any symbol). Widening keeps the
// reduction sound — it only loses pruning precision on states that can see
// a very large label variety anyway.
const topThreshold = 128

// reduce runs the paper's reduction: a forward dataflow analysis that
// over-approximates the possible top-of-stack symbols for every control
// state, then removes rules whose head (state, symbol) can never occur.
func (b *builder) reduce() {
	pruneUnreachable(b.PDS, b.topSeeds())
}

// topSeeds is the input of the top-of-stack analysis: the control states
// a packet enters in see any first symbol of Lang(a); the symbols at stack
// depth ≥ 2 start as those of Lang(a) plus ⊥.
type topSeeds struct {
	entry []pds.State
	first []*nfa.Set
	below []*nfa.Set
	bot   pds.Sym
}

func (b *builder) topSeeds() topSeeds {
	pre := b.Query.PreNFA
	sd := topSeeds{bot: b.Bot}
	for _, arc := range pre.Arcs(pre.Start()) {
		sd.first = append(sd.first, arc.Set)
	}
	bStart := b.pathNFA.Arcs(b.pathNFA.Start())
	for e := 0; e < b.Net.Topo.NumLinks(); e++ {
		for _, arc := range bStart {
			if arc.Set.Has(nfa.Sym(e)) {
				sd.entry = append(sd.entry, b.stateOf(topology.LinkID(e), arc.To, 0))
			}
		}
	}
	for i := 0; i < pre.NumStates(); i++ {
		for _, arc := range pre.Arcs(i) {
			sd.below = append(sd.below, arc.Set)
		}
	}
	return sd
}

// pruneUnreachable computes the top-of-stack sets of every control state
// with one worklist over p's head index and removes the rules whose head
// is outside them, preserving rule order (tags stay valid: they index
// b.Steps, not rules; weight ids index the PDS's weight table, which
// Filter keeps).
//
// Each lattice value is an explicit set of at most topThreshold symbols or
// ⊤. The transfer of a rule is monotone and widening is a closure on that
// lattice, so the least fixpoint does not depend on the evaluation order:
// visiting each rule only when its head becomes reachable keeps exactly
// the rules a round-robin iteration over all rules would keep
// (reductions_test.go checks this against such an iteration).
func pruneUnreachable(p *pds.PDS, sd topSeeds) {
	t := newTopAnalysis(p)
	for _, set := range sd.below {
		t.addSet(t.belowCell(), set)
	}
	t.add(t.belowCell(), sd.bot)
	t.seedEntries(sd.entry, sd.first)
	t.drain()
	p.Filter(func(i int, _ *pds.Rule) bool { return t.kept[i>>6]&(1<<(i&63)) != 0 })
}

// topCell is the per-state storage of the analysis: the ⊤ flag, the count
// of explicit members, whether the state is an entry state (its members
// include the shared entry set rather than facts of its own) and whether
// a fired pop rule targets the state.
type topCell struct {
	top     bool
	entry   bool
	popped  bool
	members uint8
}

// topItem is a worklist entry: a new fact (s, γ), s turning ⊤ when g is
// topSym, or entry state s seeing the entry set when g is entrySym.
type topItem struct {
	s pds.State
	g pds.Sym
}

const (
	topSym   = pds.Eps
	entrySym = pds.Eps - 1
)

// topAnalysis is the state of one worklist run. Cell NumStates stands for
// the global set of symbols at stack depth ≥ 2 ("below"): it over-
// approximates Lang(a), ⊥ and everything pushed below a new top, and pop
// rules copy it into their target states.
type topAnalysis struct {
	p     *pds.PDS
	cells []topCell
	facts factSet
	work  []topItem
	// belowSyms lists below's explicit members in insertion order, and
	// pops the states targeted by fired pop rules: each pop target
	// receives below's members once, then only the symbols below gains.
	belowSyms []pds.Sym
	pops      []pds.State
	// entrySet is the union of the first-symbol sets, which every entry
	// state sees; it is held once instead of as facts of each entry state.
	entrySet *nfa.Set
	// kept marks the rules whose head became reachable.
	kept []uint64
}

func newTopAnalysis(p *pds.PDS) *topAnalysis {
	return &topAnalysis{
		p:     p,
		cells: make([]topCell, p.NumStates+1),
		facts: newFactSet(),
		kept:  make([]uint64, (len(p.Rules)+63)/64),
	}
}

func (t *topAnalysis) belowCell() pds.State { return pds.State(t.p.NumStates) }

// add records that cell c may see symbol g.
func (t *topAnalysis) add(c pds.State, g pds.Sym) {
	cl := &t.cells[c]
	if cl.top || cl.entry && t.entrySet.Has(nfa.Sym(g)) || !t.facts.insert(factKey(c, g)) {
		return
	}
	if cl.members == topThreshold {
		t.widen(c)
		return
	}
	cl.members++
	if c != t.belowCell() {
		t.work = append(t.work, topItem{c, g})
		return
	}
	t.belowSyms = append(t.belowSyms, g)
	for _, s := range t.pops {
		t.add(s, g)
	}
}

// widen moves cell c to ⊤.
func (t *topAnalysis) widen(c pds.State) {
	if t.cells[c].top {
		return
	}
	t.cells[c].top = true
	if c != t.belowCell() {
		t.work = append(t.work, topItem{c, topSym})
		return
	}
	for _, s := range t.pops {
		t.widen(s)
	}
}

// addSet records that cell c may see every member of set.
func (t *topAnalysis) addSet(c pds.State, set *nfa.Set) {
	if t.cells[c].top {
		return
	}
	if set.Len() > topThreshold {
		t.widen(c)
		return
	}
	set.Each(func(x nfa.Sym) bool {
		t.add(c, pds.Sym(x))
		return !t.cells[c].top
	})
}

// seedEntries gives every entry state the union of the first-symbol sets.
// The union is computed and stored once: an entry state's members are the
// union plus its own facts, and one work item fires the state's rules on
// the union. It runs before any other fact reaches a control state.
func (t *topAnalysis) seedEntries(entry []pds.State, first []*nfa.Set) {
	if len(first) == 0 || len(entry) == 0 {
		return
	}
	u := first[0]
	for _, set := range first[1:] {
		u = u.Union(set)
	}
	n := u.Len()
	if n == 0 {
		return
	}
	t.entrySet = u
	for _, s := range entry {
		cl := &t.cells[s]
		if cl.top || cl.entry {
			continue
		}
		if n > topThreshold {
			t.widen(s)
			continue
		}
		cl.entry, cl.members = true, uint8(n)
		t.work = append(t.work, topItem{s, entrySym})
	}
}

// popTarget registers s as the target of a fired pop rule: s sees
// everything below holds, now and later.
func (t *topAnalysis) popTarget(s pds.State) {
	if t.cells[s].popped {
		return
	}
	t.cells[s].popped = true
	t.pops = append(t.pops, s)
	if t.cells[t.belowCell()].top {
		t.widen(s)
		return
	}
	for _, g := range t.belowSyms {
		t.add(s, g)
	}
}

// drain fires the rules of every new fact until none is left. A fact of a
// state that has since turned ⊤ is skipped: the ⊤ item fires all of the
// state's rules anyway.
func (t *topAnalysis) drain() {
	p := t.p
	for len(t.work) > 0 {
		it := t.work[len(t.work)-1]
		t.work = t.work[:len(t.work)-1]
		var rs []int32
		switch {
		case it.g == topSym:
			rs = p.RulesFromState(it.s)
		case t.cells[it.s].top:
			continue
		case it.g == entrySym:
			rs = p.RulesFromState(it.s)
		default:
			rs = p.RulesFrom(it.s, it.g)
		}
		for _, ri := range rs {
			r := &p.Rules[ri]
			if it.g == entrySym && !t.entrySet.Has(nfa.Sym(r.FromSym)) {
				continue
			}
			t.kept[ri>>6] |= 1 << (ri & 63)
			switch r.Kind {
			case pds.SwapRule:
				t.add(r.ToState, r.Sym1)
			case pds.PushRule:
				t.add(r.ToState, r.Sym1)
				t.add(t.belowCell(), r.Sym2)
			case pds.PopRule:
				t.popTarget(r.ToState)
			}
		}
	}
}

// factSet is an open-addressing hash set of packed (cell, symbol) facts
// with linear probing. It starts small and doubles at half load, so a
// query whose reachable heads are few never clears a table sized to the
// rule count.
type factSet struct {
	slots []uint64
	n     int
	shift uint
}

const factSetLog = 10

// factKey packs a fact; the cell is offset by one so no key is zero, the
// empty-slot marker.
func factKey(c pds.State, g pds.Sym) uint64 {
	return uint64(uint32(c)+1)<<32 | uint64(g)
}

func newFactSet() factSet {
	return factSet{slots: make([]uint64, 1<<factSetLog), shift: 64 - factSetLog}
}

// insert adds k and reports whether it was new.
func (f *factSet) insert(k uint64) bool {
	if 2*(f.n+1) > len(f.slots) {
		f.grow()
	}
	mask := uint64(len(f.slots) - 1)
	for i := (k * 0x9E3779B97F4A7C15) >> f.shift; ; i = (i + 1) & mask {
		switch f.slots[i] {
		case 0:
			f.slots[i] = k
			f.n++
			return true
		case k:
			return false
		}
	}
}

func (f *factSet) grow() {
	old := f.slots
	f.slots = make([]uint64, 2*len(old))
	f.shift--
	f.n = 0
	for _, k := range old {
		if k != 0 {
			f.insert(k)
		}
	}
}
