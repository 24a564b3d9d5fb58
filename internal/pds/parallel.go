package pds

import (
	"runtime"
	"sync"
	"sync/atomic"

	"aalwines/internal/nfa"
)

// Parallel post* — sharded speculative rule matching with a sequential
// commit pass.
//
// The post* worklist is a strict sequential dependence chain: every pop
// mutates the automaton (inserts transitions, improves weights, allocates
// mid states, registers ε-predecessors), and the byte-identity contract —
// parallel results must equal serial results bit for bit, including
// witness records, edge order and the early-accept stopping point — pins
// the entire mutation sequence. What is NOT order-dependent is rule
// matching: which PDS rules fire for a popped transition is a pure
// function of its (source state, symbol) pair over the frozen rule
// indexes and the immutable virtual-symbol sets. That pure prefix is
// what runs in parallel.
//
// Each round freezes the currently pending worklist segment, captures
// every entry's (state, symbol) pair, shards the entries by a hash of the
// packed pair, and lets a bounded worker pool precompute the match lists
// — workers drain their own shard first and then steal from the others
// via per-shard atomic cursors. The commit pass then replays the exact
// serial pop sequence, substituting the precomputed match lists for the
// inline matcher. New pushes land beyond the frozen segment and form the
// next round. Speculation reads only data that is quiescent during the
// round (rule tables frozen by PDS.Freeze, symbol sets interned before
// saturation), and the WaitGroup barrier orders every speculative read
// before the first commit mutation, so the path is clean under -race.
//
// A round smaller than specRoundMin skips speculation: goroutine handoff
// would cost more than the matching itself.
const specRoundMin = 128

// specTask is one frozen worklist entry of a speculation round.
type specTask struct {
	from State
	sym  Sym
	// spec marks tasks eligible for speculation (control-state source,
	// non-ε symbol); the rest are committed with the inline matcher.
	spec    bool
	probes  int64
	matched []int32
}

// parPool is the per-run speculation state: shard index, cursors and
// per-worker match arenas, reused across rounds.
type parPool struct {
	nw      int
	shards  [][]int32 // task indices per shard
	cursors []atomic.Int64
	arenas  []matchArena
	steals  []int64 // per-worker steal counts, summed after each round
	tasks   []specTask
}

// matchArena bump-allocates rule-index slices for set-edge matches; one
// arena per worker, so speculation never contends on the allocator.
type matchArena struct {
	chunk []int32
}

const matchChunk = 4096

func (ma *matchArena) alloc(n int) []int32 {
	if n == 0 {
		return nil
	}
	if len(ma.chunk) < n {
		c := matchChunk
		if c < n {
			c = n
		}
		ma.chunk = make([]int32, c)
	}
	v := ma.chunk[:0:n]
	ma.chunk = ma.chunk[n:]
	return v
}

// shardOf maps a packed (state, symbol) pair to a shard with the same
// Fibonacci mix the flat transition index uses, so entries that collide in
// one index chain land in one shard and their match lists share cache
// lines.
func shardOf(from State, sym Sym, nshards int) int {
	h := chainKey(from, sym) * 0x9E3779B97F4A7C15
	return int((h >> 32) % uint64(nshards))
}

// runParallel drains the worklist in speculate/commit rounds. The result
// is byte-identical to runSerial: commit performs the identical mutation
// sequence at identical pop boundaries, and the speculation only resolves
// the pure match function ahead of time (including the probe counts the
// inline matcher would tally).
func (r *postRun) runParallel(parallelism int) (*Result, error) {
	nw := parallelism
	if gmp := runtime.GOMAXPROCS(0); nw > gmp {
		nw = gmp
	}
	if nw < 2 {
		return r.runSerial()
	}
	r.tally.parallel = true
	// Workers read the rule indexes concurrently; build them now if a
	// caller skipped Freeze.
	r.p.Freeze()
	pool := &parPool{
		nw:      nw,
		shards:  make([][]int32, nw),
		cursors: make([]atomic.Int64, nw),
		arenas:  make([]matchArena, nw),
		steals:  make([]int64, nw),
	}
	for r.head < len(r.queue) {
		n := len(r.queue) - r.head
		tasks := pool.prepare(r, n)
		if tasks != nil {
			pool.speculate(r.p, r.a)
		}
		for i := 0; i < n; i++ {
			if res, err, done := r.beat(); done {
				return res, err
			}
			ref := r.pop()
			if tasks != nil && tasks[i].spec {
				r.process(ref, tasks[i].matched, tasks[i].probes, true)
			} else {
				r.process(ref, nil, 0, false)
			}
		}
	}
	r.tally.pops = r.work
	return r.finish(false), nil
}

// prepare freezes the next n pending pops into the round's task array and
// builds the shard partitions. It returns nil for rounds too small to pay
// for speculation; the commit loop then matches inline.
func (p *parPool) prepare(r *postRun, n int) []specTask {
	if n < specRoundMin {
		return nil
	}
	if cap(p.tasks) < n {
		p.tasks = make([]specTask, n)
	}
	tasks := p.tasks[:n]
	for s := range p.shards {
		p.shards[s] = p.shards[s][:0]
		p.cursors[s].Store(0)
	}
	any := false
	for i := 0; i < n; i++ {
		ref := r.queue[r.head+i]
		sym := r.a.states[ref.from].edges[ref.ei].Sym
		tk := &tasks[i]
		tk.from, tk.sym = ref.from, sym
		tk.matched, tk.probes = nil, 0
		tk.spec = int(ref.from) < r.p.NumStates && sym != Eps
		if tk.spec {
			s := shardOf(ref.from, sym, p.nw)
			p.shards[s] = append(p.shards[s], int32(i))
			any = true
		}
	}
	if !any {
		return nil
	}
	return tasks
}

// speculate resolves the match lists of the round's tasks on nw workers.
// Worker w owns shard w; when its shard drains it advances to the next
// shard and steals remaining entries through that shard's atomic cursor.
func (p *parPool) speculate(pds *PDS, a *Auto) {
	var wg sync.WaitGroup
	for w := 0; w < p.nw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ma := &p.arenas[w]
			for off := 0; off < p.nw; off++ {
				s := (w + off) % p.nw
				list := p.shards[s]
				for {
					cur := int(p.cursors[s].Add(1)) - 1
					if cur >= len(list) {
						break
					}
					if off != 0 {
						p.steals[w]++
					}
					tk := &p.tasks[list[cur]]
					tk.matched, tk.probes = matchRules(pds, a, tk.from, tk.sym, ma)
				}
			}
		}(w)
	}
	wg.Wait()
	total := int64(0)
	for w := range p.steals {
		total += p.steals[w]
		p.steals[w] = 0
	}
	if total > 0 {
		shardSteals.Add(total)
	}
}

// matchRules is the pure match function the speculation precomputes: the
// rule indices applyRules would fire for a transition with this (state,
// symbol) pair, plus the probe count the inline matcher would tally. For
// concrete symbols the indexed rule list is returned as-is (no copy); set
// edges filter into the worker's arena.
func matchRules(p *PDS, a *Auto, from State, sym Sym, ma *matchArena) ([]int32, int64) {
	if set := a.SymSet(sym); set != nil {
		rs := p.RulesFromState(from)
		out := ma.alloc(len(rs))
		for _, ri := range rs {
			if set.Has(nfa.Sym(p.Rules[ri].FromSym)) {
				out = append(out, ri)
			}
		}
		return out, int64(len(rs))
	}
	rs := p.RulesFrom(from, sym)
	return rs, int64(len(rs))
}
