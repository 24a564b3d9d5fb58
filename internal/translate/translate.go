// Package translate builds (weighted) pushdown systems from an MPLS network
// and a compiled query, following §4.2 of the AalWiNes paper:
//
//   - control states are (incoming link, path-NFA state) pairs — extended
//     with a global failure counter for the under-approximation — plus
//     fresh chain states that decompose multi-operation sequences into
//     normalised pop/swap/push rules;
//   - the stack is the MPLS header over the interned label alphabet with a
//     bottom marker ⊥;
//   - the initial P-automaton encodes "packet enters on some link e₁ with a
//     header in Lang(a)", the final specification encodes Lang(c);
//   - the over-approximation admits a priority group whenever its locally
//     required failure set has size ≤ k; the under-approximation threads a
//     global failure budget through the control state;
//   - a top-of-stack dataflow analysis removes unreachable rules before
//     saturation (the paper's reduction step).
package translate

import (
	"slices"

	"aalwines/internal/labels"
	"aalwines/internal/network"
	"aalwines/internal/nfa"
	"aalwines/internal/pds"
	"aalwines/internal/query"
	"aalwines/internal/routing"
	"aalwines/internal/topology"
	"aalwines/internal/weight"
)

// Mode selects the approximation direction.
type Mode uint8

const (
	// Over builds the over-approximation: up to k links may fail at every
	// router independently.
	Over Mode = iota
	// Under builds the under-approximation: a global failure counter in
	// the control state bounds the total (with possible double counting
	// along loops).
	Under
)

// Options configure the construction.
type Options struct {
	Mode Mode
	// Spec, when non-nil, makes the system weighted: every step rule
	// carries the vector of per-step contributions to the spec's linear
	// expressions.
	Spec weight.Spec
	// Dist overrides the link distance function for the Distance quantity.
	Dist weight.DistanceFunc
	// NoReductions disables the top-of-stack reduction (ablation switch).
	NoReductions bool
	// Slice restricts rule emission to the query's network slice (the
	// forward product closure of routing adjacency × path NFA; see
	// slice.go). The saturated automaton — and hence the verification
	// result — is byte-identical with or without it; only rule counts and
	// build work shrink. Incremental builds (BlockStore hooks set) ignore
	// the flag: block liveness is global over the routing table, so cached
	// per-key blocks cannot soundly carry a query-scoped slice.
	Slice bool
}

// StepInfo describes the network-level action of a tagged rule: the packet
// is forwarded out of link Out using priority group Group (0-based).
type StepInfo struct {
	Out   topology.LinkID
	Group int
}

// System is a constructed pushdown system ready for saturation.
type System struct {
	Net   *network.Network
	Query *query.Query
	Opts  Options

	PDS   *pds.PDS
	Bot   pds.Sym // the bottom-of-stack marker symbol
	Dim   int     // weight dimension (0 = unweighted)
	Steps []StepInfo

	// FinalStates are the control states from which the final stack
	// specification is checked.
	FinalStates []pds.State
	// FinalSpec is an epsilon-free NFA over the stack alphabet accepting
	// Lang(c)·⊥.
	FinalSpec *nfa.NFA

	// RulesBeforeReduction records the rule count before the reduction
	// pass (equal to len(PDS.Rules) when reductions are disabled).
	RulesBeforeReduction int

	// SliceStats reports the query-scoped slice this build emitted under;
	// Active is false when slicing was off or skipped (incremental builds).
	SliceStats SliceStats

	numB    int // path NFA states
	kBudget int // failure budget levels for state encoding (1 for Over)
	baseCnt int // number of base control states
}

// Build constructs the pushdown system for a network and query.
func Build(net *network.Network, q *query.Query, opts Options) *System {
	b := &builder{
		System: &System{Net: net, Query: q, Opts: opts},
	}
	b.construct()
	return b.System
}

type builder struct {
	*System
	pathNFA *nfa.NFA
	slice   *Slice

	// Scratch buffers reused across keys and entries: per-call allocations
	// dominated the translation profile at paper scale.
	succBuf []int32
	failBuf []topology.LinkID

	// Incremental-build hooks (nil for a plain Build): store caches
	// relocatable per-key rule blocks, version maps a routing key to the
	// content version its cached block must match, stats tallies reuse.
	store   *BlockStore
	version func(routing.Key) uint64
	stats   BuildStats
}

// stateOf maps a base control state (incoming link, path-NFA state, failure
// budget used) to its PDS state index.
func (s *System) stateOf(e topology.LinkID, qb int, f int) pds.State {
	return pds.State((int(e)*s.numB+qb)*s.kBudget + f)
}

// DecodeState inverts stateOf for base states; ok is false for chain
// states.
func (s *System) DecodeState(st pds.State) (e topology.LinkID, qb int, f int, ok bool) {
	if int(st) >= s.baseCnt {
		return 0, 0, 0, false
	}
	f = int(st) % s.kBudget
	rest := int(st) / s.kBudget
	return topology.LinkID(rest / s.numB), rest % s.numB, f, true
}

// LabelSymOf converts a label to its stack symbol.
func LabelSymOf(id labels.ID) pds.Sym { return pds.Sym(id - 1) }

// SymLabel converts a stack symbol back to a label; ok is false for ⊥.
func (s *System) SymLabel(sym pds.Sym) (labels.ID, bool) {
	if sym == s.Bot {
		return labels.None, false
	}
	return labels.ID(sym + 1), true
}

func (b *builder) construct() {
	net, q := b.Net, b.Query
	b.pathNFA = q.PathNFA
	b.numB = b.pathNFA.NumStates()
	b.kBudget = 1
	if b.Opts.Mode == Under {
		b.kBudget = q.MaxFailures + 1
	}
	if b.Opts.Spec != nil {
		b.Dim = len(b.Opts.Spec)
	}
	L := net.Labels.Len()
	b.Bot = pds.Sym(L)
	b.baseCnt = net.Topo.NumLinks() * b.numB * b.kBudget
	b.PDS = pds.New(b.baseCnt, L+1)

	if b.Opts.Slice && b.store == nil {
		b.slice = ComputeSlice(net, q)
	}
	b.reserve()
	b.buildRules()
	if b.slice != nil {
		b.System.SliceStats = b.slice.Stats
	}
	b.RulesBeforeReduction = len(b.PDS.Rules)
	b.buildFinal()
	if !b.Opts.NoReductions {
		b.reduce()
	}
	// Systems are shared read-only across concurrent saturations; freezing
	// builds the rule indexes eagerly so no reader mutates the PDS.
	b.PDS.Freeze()
}

// kindMask tracks the possible kinds of an unknown stack symbol.
type kindMask uint8

const (
	maskMPLS kindMask = 1 << iota
	maskBottom
	maskIP
)

func kindBit(k labels.Kind) kindMask {
	switch k {
	case labels.MPLS:
		return maskMPLS
	case labels.BottomMPLS:
		return maskBottom
	default:
		return maskIP
	}
}

// belowKinds returns the possible kinds of the symbol directly below a
// symbol of kind k in a valid header (⊥ below an IP label is not a label).
func belowKinds(k labels.Kind) kindMask {
	switch k {
	case labels.MPLS:
		return maskMPLS | maskBottom
	case labels.BottomMPLS:
		return maskIP
	default:
		return 0
	}
}

// symStack is the symbolic top of stack during chain construction: a known
// prefix (top first) over an unknown tail whose first symbol has a kind in
// tail.
type symStack struct {
	known []labels.ID
	tail  kindMask
}

func (b *builder) buildRules() {
	// Range walks the table's cached flat view: no per-build key-slice
	// allocation and sort, no per-key map lookup — at paper scale the
	// Keys-then-Lookup pattern alone costs hundreds of milliseconds per
	// query. Iteration order is identical to Keys, so emission order (and
	// with it every saturation counter) is unchanged.
	b.Net.Routing.Range(func(key routing.Key, gs routing.Groups) bool {
		if b.store != nil {
			ver := b.version(key)
			if blk := b.store.get(key, ver); blk != nil {
				b.splice(blk)
				b.stats.BlocksReused++
				return true
			}
			b.store.put(key, ver, b.record(key))
			b.stats.BlocksRebuilt++
			return true
		}
		if b.slice != nil {
			if !b.slice.LiveLink(key.In) {
				b.slice.Stats.KeysDropped++
				return true
			}
			b.slice.Stats.KeysKept++
		}
		b.buildKeyGroups(key, gs)
		return true
	})
}

// buildKey emits all rules of one routing-table key.
func (b *builder) buildKey(key routing.Key) {
	b.buildKeyGroups(key, b.Net.Routing.Lookup(key.In, key.Top))
}

// buildKeyGroups emits all rules of one routing-table key. Emission never
// produces the same rule twice, so rules are appended without a duplicate
// check: rules from different keys differ in their tags or start at fresh
// chain states; within a key, first rules differ in (from, to, tag), chain
// rules start at fresh states, and candidates yields distinct labels.
// TestNoDuplicateRules holds this across modes, weights and slicing.
func (b *builder) buildKeyGroups(key routing.Key, gs routing.Groups) {
	b.failBuf = budgetGroups(gs, b.Query.MaxFailures, b.failBuf, func(j, nFail int) {
		for _, entry := range gs[j].Entries {
			b.buildEntry(key.In, key.Top, entry, j, nFail)
		}
	})
}

// budgetGroups calls fn(j, nFail) for every priority group j of gs whose
// failure prefix (the distinct links of groups before j, see
// Groups.PrefixLinks) has nFail ≤ k links, in priority order. Prefixes
// only grow with j, so it stops at the first group over budget. buf is
// scratch for the prefix; the grown buffer is returned for reuse.
func budgetGroups(gs routing.Groups, k int, buf []topology.LinkID, fn func(j, nFail int)) []topology.LinkID {
	buf = buf[:0]
	for j := range gs {
		if len(buf) > k {
			break
		}
		fn(j, len(buf))
		for _, e := range gs[j].Entries {
			if !slices.Contains(buf, e.Out) {
				buf = append(buf, e.Out)
			}
		}
	}
	return buf
}

// successors returns the distinct successor states of path-NFA state qb
// on link e in ascending order, in a scratch buffer that the next call
// overwrites. The fixed order keeps the rule order — and with it the
// tie-breaks among equally minimal witnesses — the same for every build
// of one (network, query).
func (b *builder) successors(qb int, e topology.LinkID) []int32 {
	out := b.succBuf[:0]
	for _, arc := range b.pathNFA.Arcs(qb) {
		if arc.Set.Has(nfa.Sym(e)) && !slices.Contains(out, int32(arc.To)) {
			out = append(out, int32(arc.To))
		}
	}
	slices.Sort(out)
	b.succBuf = out
	return out
}

// reserve pre-sizes the rule and step slices from counts known before
// emission: every routing entry the build will visit adds at most one
// step, and emits one rule per op (one for a pure forward) for each
// successor pair and failure level it can fire under. The rule estimate is
// exact unless a chain branches over an unknown top of stack. At paper
// scale this replaces several append-doubling generations of two large
// arrays with one allocation each.
func (b *builder) reserve() {
	k := b.Query.MaxFailures
	steps, rules := 0, 0
	b.Net.Routing.Range(func(key routing.Key, gs routing.Groups) bool {
		if b.slice != nil && !b.slice.LiveLink(key.In) {
			return true
		}
		b.failBuf = budgetGroups(gs, k, b.failBuf, func(j, nFail int) {
			levels := 1
			if b.Opts.Mode == Under {
				levels = b.kBudget - nFail
			}
			for _, entry := range gs[j].Entries {
				steps++
				pairs := 0
				for qb := 0; qb < b.numB; qb++ {
					if b.slice == nil || b.slice.Live(key.In, qb) {
						pairs += len(b.successors(qb, entry.Out))
					}
				}
				rules += pairs * levels * max(1, len(entry.Ops))
			}
		})
		return true
	})
	b.PDS.ReserveRules(rules)
	b.Steps = make([]StepInfo, 0, steps)
}

// buildEntry emits rule chains for one routing entry across all path-NFA
// transitions and failure budgets.
func (b *builder) buildEntry(in topology.LinkID, top labels.ID, entry routing.Entry, group, nFail int) {
	// Path-NFA moves on the outgoing link.
	var w pds.WeightID
	if b.Opts.Spec != nil {
		atoms := weight.StepAtoms(b.Net.Topo, entry.Out, b.Opts.Dist, nFail, entry.Ops.StackGrowth())
		w = b.PDS.AddWeight(b.Opts.Spec.Eval(atoms))
	}
	tag := int32(len(b.Steps))
	used := false
	for qb := 0; qb < b.numB; qb++ {
		// Rules headed at a pair outside the forward slice can never fire;
		// skipping them leaves the saturation byte-identical (slice.go).
		if b.slice != nil && !b.slice.Live(in, qb) {
			continue
		}
		for _, q2 := range b.successors(qb, entry.Out) {
			for f := 0; f < b.kBudget; f++ {
				f2 := f
				if b.Opts.Mode == Under {
					f2 = f + nFail
					if f2 >= b.kBudget {
						continue
					}
				}
				from := b.stateOf(in, qb, f)
				to := b.stateOf(entry.Out, int(q2), f2)
				init := symStack{known: []labels.ID{top}, tail: belowKinds(b.Net.Labels.Kind(top))}
				if b.emitOps(from, init, entry.Ops, to, tag, w) {
					used = true
				}
			}
		}
	}
	if used {
		b.Steps = append(b.Steps, StepInfo{Out: entry.Out, Group: group})
	}
}

// emitOps recursively emits the normalised rule chain for an op sequence,
// branching over candidate symbols when the top of stack is unknown. It
// reports whether at least one rule was emitted. Only the first rule of a
// chain carries the tag and weight.
func (b *builder) emitOps(cur pds.State, st symStack, ops routing.Ops, to pds.State, tag int32, w pds.WeightID) bool {
	if len(ops) == 0 {
		// Forwarding without header rewrite: a no-op swap moves control.
		cands := b.candidates(st)
		for _, t := range cands {
			b.PDS.AddRule(pds.Rule{
				FromState: cur, FromSym: LabelSymOf(t),
				ToState: to, Kind: pds.SwapRule, Sym1: LabelSymOf(t),
				Weight: w, Tag: tag,
			})
		}
		return len(cands) > 0
	}
	op := ops[0]
	rest := ops[1:]
	lt := b.Net.Labels
	any := false
	for _, t := range b.candidates(st) {
		var next symStack
		var rule pds.Rule
		switch op.Kind {
		case routing.OpSwap:
			if lt.Kind(op.Label) != lt.Kind(t) {
				continue // swap must preserve the label kind (validity)
			}
			rule = pds.Rule{Kind: pds.SwapRule, Sym1: LabelSymOf(op.Label)}
			next = st.afterSwap(t, op.Label, lt)
		case routing.OpPush:
			if !labels.ValidOnTopOf(lt, op.Label, t) {
				continue
			}
			rule = pds.Rule{Kind: pds.PushRule, Sym1: LabelSymOf(op.Label), Sym2: LabelSymOf(t)}
			next = st.afterPush(t, op.Label, lt)
		case routing.OpPop:
			if kk := lt.Kind(t); kk != labels.MPLS && kk != labels.BottomMPLS {
				continue
			}
			rule = pds.Rule{Kind: pds.PopRule}
			next = st.afterPop(t, lt)
		}
		dst := to
		if len(rest) > 0 {
			dst = b.PDS.AddState()
		}
		rule.FromState = cur
		rule.FromSym = LabelSymOf(t)
		rule.ToState = dst
		rule.Weight = w
		rule.Tag = tag
		b.PDS.AddRule(rule)
		emitted := true
		if len(rest) > 0 {
			emitted = b.emitOps(dst, next, rest, to, -1, pds.NoWeight)
		}
		any = any || emitted
	}
	return any
}

// candidates returns the concrete labels the symbolic top may be.
func (b *builder) candidates(st symStack) []labels.ID {
	if len(st.known) > 0 {
		return st.known[:1]
	}
	var out []labels.ID
	lt := b.Net.Labels
	for _, l := range lt.All() {
		if kindBit(l.Kind)&st.tail != 0 {
			out = append(out, l.ID)
		}
	}
	return out
}

func (st symStack) afterSwap(t, l labels.ID, lt *labels.Table) symStack {
	if len(st.known) > 0 {
		known := append([]labels.ID{l}, st.known[1:]...)
		return symStack{known: known, tail: st.tail}
	}
	return symStack{known: []labels.ID{l}, tail: belowKinds(lt.Kind(t))}
}

func (st symStack) afterPush(t, l labels.ID, lt *labels.Table) symStack {
	if len(st.known) > 0 {
		known := append([]labels.ID{l}, st.known...)
		return symStack{known: known, tail: st.tail}
	}
	return symStack{known: []labels.ID{l, t}, tail: belowKinds(lt.Kind(t))}
}

func (st symStack) afterPop(t labels.ID, lt *labels.Table) symStack {
	if len(st.known) > 0 {
		return symStack{known: st.known[1:], tail: st.tail}
	}
	return symStack{known: nil, tail: belowKinds(lt.Kind(t))}
}

// buildFinal computes the final control states and the final stack
// specification Lang(c)·⊥.
func (b *builder) buildFinal() {
	L := b.Net.Labels.Len()
	post := b.Query.PostNFA
	spec := nfa.New(L + 1)
	// Map PostNFA states into spec (state 0 of post maps to spec start).
	m := make([]nfa.State, post.NumStates())
	for i := 0; i < post.NumStates(); i++ {
		if i == post.Start() {
			m[i] = spec.Start()
		} else {
			m[i] = spec.AddState()
		}
	}
	final := spec.AddState()
	spec.SetAccept(final, true)
	botSet := nfa.SetOf(L+1, nfa.Sym(b.Bot))
	for i := 0; i < post.NumStates(); i++ {
		for _, arc := range post.Arcs(i) {
			spec.AddArc(m[i], arc.Set.Lift(L+1), m[arc.To])
		}
		if post.Accepting(i) {
			spec.AddArc(m[i], botSet, final)
		}
	}
	b.FinalSpec = spec

	for e := 0; e < b.Net.Topo.NumLinks(); e++ {
		for qb := 0; qb < b.numB; qb++ {
			if !b.pathNFA.Accepting(qb) {
				continue
			}
			for f := 0; f < b.kBudget; f++ {
				b.FinalStates = append(b.FinalStates, b.stateOf(topology.LinkID(e), qb, f))
			}
		}
	}
}

// InitAuto builds the initial P-automaton: it accepts ⟨(e₁,q₁,0), h·⊥⟩ for
// every link e₁ with δ_B(q₀,e₁) ∋ q₁ and every h ∈ Lang(a). In weighted
// mode the first-symbol edges carry the first link's step weight (Links,
// Hops and Distance count the entry link; Failures and Tunnels are defined
// over consecutive pairs and contribute nothing).
func (s *System) InitAuto() *pds.Auto {
	a := pds.NewAuto(s.PDS)
	pre := s.Query.PreNFA
	L := s.Net.Labels.Len()
	m := make([]pds.State, pre.NumStates())
	for i := range m {
		m[i] = a.AddState()
	}
	botAccept := a.AddState()
	a.SetAccept(botAccept, true)
	// Interior and accepting structure of Lang(a). Each arc set is lifted
	// into the stack alphabet and interned once; the start state's arcs
	// are kept, since every entry edge below reuses their virtual symbols.
	type startArc struct {
		sym pds.Sym
		to  pds.State
	}
	var starts []startArc
	for i := 0; i < pre.NumStates(); i++ {
		for _, arc := range pre.Arcs(i) {
			if arc.Set.IsEmpty() {
				continue
			}
			sym := a.VirtualSym(arc.Set.Lift(L + 1))
			a.AddEdge(m[i], sym, m[arc.To])
			if i == pre.Start() {
				starts = append(starts, startArc{sym, m[arc.To]})
			}
		}
		if pre.Accepting(i) {
			a.AddEdge(m[i], s.Bot, botAccept)
		}
	}
	// Entry edges from control states.
	bStart := s.Query.PathNFA.Start()
	for e := 0; e < s.Net.Topo.NumLinks(); e++ {
		var w []uint64
		if s.Opts.Spec != nil {
			atoms := weight.StepAtoms(s.Net.Topo, topology.LinkID(e), s.Opts.Dist, 0, 0)
			w = s.Opts.Spec.Eval(atoms)
		}
		for _, arc := range s.Query.PathNFA.Arcs(bStart) {
			if !arc.Set.Has(nfa.Sym(e)) {
				continue
			}
			ctl := s.stateOf(topology.LinkID(e), arc.To, 0)
			for _, st := range starts {
				a.AddEdgeW(ctl, st.sym, st.to, w)
			}
		}
	}
	return a
}
