package translate

import (
	"aalwines/internal/network"
	"aalwines/internal/nfa"
	"aalwines/internal/obs"
	"aalwines/internal/query"
	"aalwines/internal/routing"
	"aalwines/internal/topology"
)

// Query-scoped network slicing.
//
// A query anchored at concrete endpoints can only ever drive the packet
// through a fraction of a large network, yet the translator emits rules
// for every routing-table key. The slice computed here restricts emission
// to the keys a saturation can actually reach: pairs (link, path-NFA
// state) reachable in the product of the routing adjacency (In-link → the
// Out links of its entries, across every priority group whose failure
// prefix fits the query's budget k) with the query's path NFA, starting
// from exactly the (link, state) pairs the initial P-automaton seeds.
//
// Emission is gated by the FORWARD closure only. The forward closure
// over-approximates every control state that can acquire an outgoing
// transition during post* (induction: initial entry edges seed exactly
// the forward seeds, and a fired rule's targets are forward successors of
// its head), so a rule whose head pair is outside it never fires — and
// removing never-firing rules leaves the saturated automaton, the witness
// records, the early-accept stopping point and hence the verification
// result byte-identical to the unsliced run. The backward closure (pairs
// that can still reach an accepting pair) is also computed and reported:
// intersecting it would shrink the system further, but rules outside it
// still fire, and dropping them changes worklist pop order, early-accept
// timing and the Dijkstra tie-breaks of FindAccepting — it preserves
// verdicts, not witnesses. The byte-identity contract is the stronger
// guarantee the engine's differential harness checks, so the backward
// direction stays observational; see DESIGN.md §11 for the full argument
// and the fallback rule.
type Slice struct {
	numB int
	fwd  []bool // forward-live (link, path-NFA state) pairs
	link []bool // link has some forward-live pair

	Stats SliceStats
}

// SliceStats reports what a computed slice keeps and drops. Routers and
// links are counted by the forward closure that actually gates emission;
// CoreRouters/CoreLinks additionally intersect the backward closure — the
// lower bound a verdict-only slice could reach.
type SliceStats struct {
	Active         bool
	RoutersKept    int
	RoutersDropped int
	LinksKept      int
	LinksDropped   int
	CoreRouters    int
	CoreLinks      int
	// KeysKept/KeysDropped count routing-table keys at emission time; they
	// are filled by the builder, not ComputeSlice.
	KeysKept    int
	KeysDropped int
}

var (
	sliceRoutersKept    = obs.GetCounter("translate_slice_routers_kept_total")
	sliceRoutersDropped = obs.GetCounter("translate_slice_routers_dropped_total")
)

// Live reports whether rules headed at (link e, path-NFA state qb) can
// ever fire.
func (s *Slice) Live(e topology.LinkID, qb int) bool {
	return s.fwd[int(e)*s.numB+qb]
}

// LiveLink reports whether any path-NFA state is live on link e; a dead
// link's routing keys are skipped wholesale.
func (s *Slice) LiveLink(e topology.LinkID) bool {
	return s.link[e]
}

// ComputeSlice computes the query's network slice. The cost is one pass
// over the routing table plus a BFS over (links × path-NFA states) pairs —
// negligible next to rule emission, which it then shrinks.
func ComputeSlice(net *network.Network, q *query.Query) *Slice {
	pathNFA := q.PathNFA
	numB := pathNFA.NumStates()
	nl := net.Topo.NumLinks()
	s := &Slice{
		numB: numB,
		fwd:  make([]bool, nl*numB),
		link: make([]bool, nl),
	}

	// Routing adjacency: out links per in link, across every entry of every
	// priority group within the failure budget (the same prefix cutoff
	// buildKey applies, so the adjacency covers exactly the emitted rules).
	k := q.MaxFailures
	outs := make([][]topology.LinkID, nl)
	seen := make([]int, nl) // per-out-link dedup stamp, generation = in-link+1
	var buf []topology.LinkID
	net.Routing.Range(func(key routing.Key, gs routing.Groups) bool {
		gen := int(key.In) + 1
		buf = budgetGroups(gs, k, buf, func(j, _ int) {
			for _, entry := range gs[j].Entries {
				if seen[entry.Out] != gen {
					seen[entry.Out] = gen
					outs[key.In] = append(outs[key.In], entry.Out)
				}
			}
		})
		return true
	})

	// Forward closure from the pairs the initial automaton seeds: link e
	// with δ_B(q₀, e) ∋ q₁.
	type pair struct {
		e  topology.LinkID
		qb int
	}
	var stack []pair
	visit := func(e topology.LinkID, qb int) {
		if i := int(e)*numB + qb; !s.fwd[i] {
			s.fwd[i] = true
			stack = append(stack, pair{e, qb})
		}
	}
	for _, arc := range pathNFA.Arcs(pathNFA.Start()) {
		for e := 0; e < nl; e++ {
			if arc.Set.Has(nfa.Sym(e)) {
				visit(topology.LinkID(e), arc.To)
			}
		}
	}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, o := range outs[p.e] {
			for _, arc := range pathNFA.Arcs(p.qb) {
				if arc.Set.Has(nfa.Sym(o)) {
					visit(o, arc.To)
				}
			}
		}
	}

	// Backward closure from the accepting pairs, over the reversed product
	// edges (observational; see the type comment).
	ins := make([][]topology.LinkID, nl)
	for e := range outs {
		for _, o := range outs[e] {
			ins[o] = append(ins[o], topology.LinkID(e))
		}
	}
	bwd := make([]bool, nl*numB)
	var bstack []pair
	bvisit := func(e topology.LinkID, qb int) {
		if i := int(e)*numB + qb; !bwd[i] {
			bwd[i] = true
			bstack = append(bstack, pair{e, qb})
		}
	}
	for qb := 0; qb < numB; qb++ {
		if !pathNFA.Accepting(qb) {
			continue
		}
		for e := 0; e < nl; e++ {
			bvisit(topology.LinkID(e), qb)
		}
	}
	for len(bstack) > 0 {
		p := bstack[len(bstack)-1]
		bstack = bstack[:len(bstack)-1]
		// Predecessors: (e, qb) with p.e ∈ outs[e] and an arc qb → p.qb
		// admitting p.e.
		for _, e := range ins[p.e] {
			for qb := 0; qb < numB; qb++ {
				if bwd[int(e)*numB+qb] {
					continue
				}
				for _, arc := range pathNFA.Arcs(qb) {
					if arc.To == p.qb && arc.Set.Has(nfa.Sym(p.e)) {
						bvisit(e, qb)
						break
					}
				}
			}
		}
	}

	// Per-link rollups and router stats. A router is kept when some live
	// in-link targets it — its routing keys get emitted.
	core := make([]bool, nl)
	for e := 0; e < nl; e++ {
		for qb := 0; qb < numB; qb++ {
			if s.fwd[int(e)*numB+qb] {
				s.link[e] = true
				if bwd[int(e)*numB+qb] {
					core[e] = true
				}
			}
		}
	}
	nr := net.Topo.NumRouters()
	kept := make([]bool, nr)
	coreR := make([]bool, nr)
	for e := 0; e < nl; e++ {
		if s.link[e] {
			s.Stats.LinksKept++
			kept[net.Topo.Target(topology.LinkID(e))] = true
		} else {
			s.Stats.LinksDropped++
		}
		if core[e] {
			s.Stats.CoreLinks++
			coreR[net.Topo.Target(topology.LinkID(e))] = true
		}
	}
	for r := 0; r < nr; r++ {
		if kept[r] {
			s.Stats.RoutersKept++
		} else {
			s.Stats.RoutersDropped++
		}
		if coreR[r] {
			s.Stats.CoreRouters++
		}
	}
	s.Stats.Active = true
	sliceRoutersKept.Add(int64(s.Stats.RoutersKept))
	sliceRoutersDropped.Add(int64(s.Stats.RoutersDropped))
	return s
}
