package pds

import (
	"slices"
	"sync"

	"aalwines/internal/nfa"
)

// satScratch bundles the reusable per-run storage of the saturation
// worklists: the queue, the ε-predecessor lists and the early-accept
// product-reachability marks. Runs recycle it through a sync.Pool so batch
// verification stops paying per-run GC for bookkeeping that never escapes
// the run. Weight vectors and witness records are deliberately NOT pooled:
// they outlive the run inside the result automaton.
type satScratch struct {
	queue   []edgeRef
	epsInto [][]State

	// Early-accept product-BFS scratch: visited marks over
	// (automaton state × spec state), generation-stamped so successive
	// checks skip the O(product) clear.
	prodMark []uint32
	prodGen  uint32
	prodBuf  []prodNode

	// Early-accept intersection memo. Within one post* run the virtual
	// symbol sets and the final spec's arcs are fixed, so whether virtual
	// symbol v's set meets the spec's k-th arc (arcs numbered state by
	// state, arcBase[n] being state n's first) is decided once:
	// interMemo[v*numArcs+k] is memoUnknown until the first check asks.
	// The memo is all memoUnknown whenever the scratch sits in the pool.
	arcBase   []int
	numArcs   int
	interMemo []uint8
}

const (
	memoUnknown uint8 = iota
	memoDisjoint
	memoMeets
)

type prodNode struct {
	s State
	n int // spec state
}

var scratchPool sync.Pool

func getScratch() *satScratch {
	if v := scratchPool.Get(); v != nil {
		poolHits.Inc()
		return v.(*satScratch)
	}
	poolMisses.Inc()
	return &satScratch{}
}

func putScratch(sc *satScratch) {
	sc.reset()
	scratchPool.Put(sc)
}

// reset empties the scratch for its next run, keeping capacity. It clears
// the intersection memo: the next run's virtual symbols and spec arcs
// reuse the same ids for different sets.
func (sc *satScratch) reset() {
	sc.queue = sc.queue[:0]
	for i := range sc.epsInto {
		sc.epsInto[i] = sc.epsInto[i][:0]
	}
	sc.prodBuf = sc.prodBuf[:0]
	clear(sc.interMemo)
	sc.interMemo = sc.interMemo[:0]
}

// epsIntoFor returns the ε-predecessor table sized for at least n states
// in one step, reusing the inner slices' capacity from previous runs.
// Entries past the table's length were never written (runs hand their
// grown table back, so its length only rises), hence nil.
func (sc *satScratch) epsIntoFor(n int) [][]State {
	if len(sc.epsInto) < n {
		sc.epsInto = slices.Grow(sc.epsInto, n-len(sc.epsInto))[:n]
	}
	return sc.epsInto
}

// initInterMemo sizes the intersection memo for a run over automaton a
// (whose virtual symbols are all interned before saturation starts) and
// final spec.
func (sc *satScratch) initInterMemo(a *Auto, spec *nfa.NFA) {
	sc.arcBase = sc.arcBase[:0]
	sc.numArcs = 0
	for n := 0; n < spec.NumStates(); n++ {
		sc.arcBase = append(sc.arcBase, sc.numArcs)
		sc.numArcs += len(spec.Arcs(n))
	}
	need := len(a.sets) * sc.numArcs
	sc.interMemo = slices.Grow(sc.interMemo, need)[:need]
}

// meets reports whether virtual symbol v's set intersects the k-th arc of
// spec state n, consulting and filling the memo.
func (sc *satScratch) meets(v int, set *nfa.Set, n, k int, arc nfa.Arc) bool {
	i := v*sc.numArcs + sc.arcBase[n] + k
	m := sc.interMemo[i]
	if m == memoUnknown {
		m = memoDisjoint
		if set.Intersects(arc.Set) {
			m = memoMeets
		}
		sc.interMemo[i] = m
	}
	return m == memoMeets
}

// nextProdGen advances the early-accept mark generation; on wrap the mark
// array is cleared so stale generations cannot alias.
func (sc *satScratch) nextProdGen() uint32 {
	sc.prodGen++
	if sc.prodGen == 0 {
		for i := range sc.prodMark {
			sc.prodMark[i] = 0
		}
		sc.prodGen = 1
	}
	return sc.prodGen
}

// acceptReachable reports whether the automaton under saturation already
// accepts some configuration ⟨p, w⟩ with p ∈ starts and w ∈ L(spec) — the
// emptiness question FindAccepting answers, minus the minimisation. The
// traversal mirrors FindAccepting edge for edge: ε-transitions are skipped
// (sound at any point, since FindAccepting skips them too) and a virtual
// set-edge pairs with a spec arc iff the two sets intersect, exactly when
// FindAccepting's Inter(...).First() succeeds. A positive answer therefore
// guarantees FindAccepting finds an accepting configuration on the same
// partially saturated automaton. The set-versus-arc intersections come from
// the run's memo, which initInterMemo must have sized for a and spec.
func acceptReachable(a *Auto, starts []State, specStarts []int, spec *nfa.NFA, sc *satScratch) bool {
	ns := spec.NumStates()
	if need, have := a.numStates*ns, len(sc.prodMark); have < need {
		sc.prodMark = slices.Grow(sc.prodMark, need-have)[:need]
		clear(sc.prodMark[have:])
	}
	gen := sc.nextProdGen()
	stack := sc.prodBuf[:0]
	visit := func(s State, n int) {
		i := int(s)*ns + n
		if sc.prodMark[i] != gen {
			sc.prodMark[i] = gen
			stack = append(stack, prodNode{s, n})
		}
	}
	for _, p := range starts {
		for _, n0 := range specStarts {
			visit(p, n0)
		}
	}
	for len(stack) > 0 {
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if a.accept[nd.s] && spec.Accepting(nd.n) {
			sc.prodBuf = stack
			return true
		}
		arcs := spec.Arcs(nd.n)
		edges := a.states[nd.s].edges
		for i := range edges {
			e := &edges[i]
			if e.Sym == Eps {
				continue
			}
			set := a.SymSet(e.Sym)
			for k, arc := range arcs {
				if set != nil {
					if !sc.meets(int(e.Sym)-a.NumSyms, set, nd.n, k, arc) {
						continue
					}
				} else if !arc.Set.Has(nfa.Sym(e.Sym)) {
					continue
				}
				visit(e.To, arc.To)
			}
		}
	}
	sc.prodBuf = stack
	return false
}

// weightArena bump-allocates weight vectors in chunks, replacing the
// per-derivation make([]uint64, dim) of the old lexAdd path. The arena is
// per-run and never recycled: the vectors it hands out end up referenced by
// edges and witness records in the result automaton.
type weightArena struct {
	chunk []uint64
}

const weightChunk = 4096

// zero returns a fresh all-zeros vector of length dim.
func (wa *weightArena) zero(dim int) []uint64 {
	if len(wa.chunk) < dim {
		n := weightChunk
		if n < dim {
			n = dim
		}
		wa.chunk = make([]uint64, n)
	}
	v := wa.chunk[:dim:dim]
	wa.chunk = wa.chunk[dim:]
	return v
}

// add returns the component-wise sum like lexAdd, but allocates the result
// from the arena. As with lexAdd, a nil operand is the semiring one and the
// other operand is returned as-is (callers never mutate vectors in place).
func (wa *weightArena) add(a, b []uint64) []uint64 {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := wa.zero(len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// witArena bump-allocates witness records in chunks; like weightArena it is
// per-run and never recycled, since the records live on in the result.
type witArena struct {
	chunk []Witness
}

const witChunk = 256

func (wa *witArena) new(w Witness) *Witness {
	if len(wa.chunk) == 0 {
		wa.chunk = make([]Witness, witChunk)
	}
	p := &wa.chunk[0]
	wa.chunk = wa.chunk[1:]
	*p = w
	return p
}
