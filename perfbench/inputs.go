package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"aalwines/internal/gen"
	"aalwines/internal/network"
	"aalwines/internal/scenario"
	"aalwines/internal/topology"
	"aalwines/internal/xmlio"
)

const (
	wlPaper = "paper-cold"
	wlLive  = "whatif-live"
	wlAPI   = "api-warm"
)

var workloadNames = []string{wlPaper, wlLive, wlAPI}

// Input file names. Networks are written as a topology/routing XML pair
// under a per-network prefix; query lists hold one query per line.
// Files whose name starts with seededPrefix depend on the benchmark seed;
// all others (networks, query lists, the whatif-live state pool) are the
// same for every seed, and their references are stored in perfbench/refs.
const (
	seededPrefix = "seeded."

	fileQueries       = "queries.txt"
	fileSeededQueries = seededPrefix + "queries.txt"
	fileInvariants    = "invariants.txt"
	fileStates        = "states.txt"
	fileFeed          = seededPrefix + "feed.jsonl"
	fileWeights       = "weights.txt"
	fileREQueries     = "re.queries.txt"
	fileZooQueries    = "zoo.queries.txt"
)

// runningExampleQueries is the φ set of the paper's running example
// (Figure 1) used by the api-warm workload.
var runningExampleQueries = []string{
	"<ip> [.#v0] .* [v3#.] <ip> 0",
	"<ip> [.#v0] [^v2#v3]* [v3#.] <ip> 2",
	"<s40 ip> [.#v0] .* [v3#.] <smpls ip> 0",
	"<s40 ip> [.#v0] .* [v3#.] <mpls+ smpls ip> 1",
	"<smpls? ip> [.#v0] . . . .* [v3#.] <smpls? ip> 1",
	"<ip> [.#v0] .* [v2#v4] .* [v3#.] <ip> 1",
}

// apiWeights are the minimisation vectors weighted api-warm requests carry.
var apiWeights = []string{"Hops, Failures", "Failures, Hops", "Tunnels + Hops"}

// sizes holds the scale-dependent generator settings of every workload.
// fullSizes is the benchmark; tinySizes exists for the benchmark's own
// tests.
type sizes struct {
	paperServices, paperEdge, paperSeeded int
	liveServices, liveEdge, liveSeeded    int
	livePoolLinks, liveBatches            int
	zooRouters, zooQueries, apiRequests   int
}

var (
	fullSizes = sizes{
		paperServices: 70, paperEdge: 31, paperSeeded: 1,
		liveServices: 4, liveEdge: 16, liveSeeded: 6,
		livePoolLinks: 4, liveBatches: 5000,
		zooRouters: 30, zooQueries: 12, apiRequests: 40000,
	}
	tinySizes = sizes{
		paperServices: 1, paperEdge: 6, paperSeeded: 1,
		liveServices: 1, liveEdge: 6, liveSeeded: 2,
		livePoolLinks: 3, liveBatches: 400,
		zooRouters: 10, zooQueries: 4, apiRequests: 2000,
	}
)

// refTask is one verification the reference engine must answer.
type refTask struct {
	Key    string
	Net    *network.Network
	Query  string
	Weight string
	// Fixed marks a verification that depends only on the fixed inputs;
	// its reference is the same for every seed.
	Fixed bool
	// Explicit also cross-checks the verdict with the explicit-state
	// checker (small networks only).
	Explicit bool
	// WitnessOnly marks a task too large for the Moped-style saturator,
	// which scans every PDS rule on each worklist pop: on the paper-scale
	// network (0.24–2.2 million rules per Table-1 query) it did not finish
	// one query in 4 minutes. The dual engine answers it, and its
	// reference must be satisfied, which checkWitness then proves without
	// trusting post*.
	WitnessOnly bool
	// SameVerdictAs names the unweighted task whose verdict a weighted
	// one must repeat: a weight only ranks witnesses.
	SameVerdictAs string
}

// generate writes the workload's input files into dir and returns the
// reference tasks that cover every verification the workload can ask for.
func generate(workload string, seed int64, sz sizes, dir string) ([]refTask, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	switch workload {
	case wlPaper:
		return genPaper(seed, sz, dir)
	case wlLive:
		return genLive(seed, sz, dir)
	case wlAPI:
		return genAPI(seed, sz, dir)
	}
	return nil, fmt.Errorf("unknown workload %q", workload)
}

// netSeed is the generator seed of every workload's networks. The paper
// studies fixed datasets (one operator dataplane, fixed Topology Zoo
// networks), so every benchmark seed runs against the same networks and
// query sets, and the seed draws what varies: paper-cold's extra query, the
// live feed's events and the HTTP request schedule. With seeded networks or
// invariant sets, op latency spread by 16–50% across seeds.
const netSeed = 1

func genPaper(seed int64, sz sizes, dir string) ([]refTask, error) {
	s := gen.Nordunet(gen.NordOpts{Services: sz.paperServices, EdgeRouters: sz.paperEdge, Seed: netSeed})
	if err := writeNetwork(dir, "net", s.Net); err != nil {
		return nil, err
	}
	var table1, seeded []string
	for _, q := range s.Table1Queries() {
		table1 = append(table1, q.Text)
	}
	for _, q := range s.Queries(sz.paperSeeded, seed) {
		seeded = append(seeded, q.Text)
	}
	if err := writeLines(filepath.Join(dir, fileQueries), table1); err != nil {
		return nil, err
	}
	if err := writeLines(filepath.Join(dir, fileSeededQueries), seeded); err != nil {
		return nil, err
	}
	var tasks []refTask
	for i, q := range append(table1, seeded...) {
		fixed := i < len(table1)
		tasks = append(tasks, refTask{Key: queryKey(i), Net: s.Net, Query: q, Fixed: fixed, WitnessOnly: fixed})
	}
	return tasks, nil
}

func genLive(seed int64, sz sizes, dir string) ([]refTask, error) {
	s := gen.Nordunet(gen.NordOpts{Services: sz.liveServices, EdgeRouters: sz.liveEdge, Seed: netSeed})
	if err := writeNetwork(dir, "net", s.Net); err != nil {
		return nil, err
	}
	// Invariants are distinct: the hub keeps one cell per query text.
	var inv []string
	for _, q := range append(s.Table1Queries(), s.Queries(sz.liveSeeded, netSeed)...) {
		if !slices.Contains(inv, q.Text) {
			inv = append(inv, q.Text)
		}
	}
	if err := writeLines(filepath.Join(dir, fileInvariants), inv); err != nil {
		return nil, err
	}
	lines, states, err := liveFeed(s, seed, sz)
	if err != nil {
		return nil, err
	}
	if err := writeLines(filepath.Join(dir, fileFeed), lines); err != nil {
		return nil, err
	}
	// The state pool is an input file too, so that the fixed digest of
	// the stored references covers it; the worker does not read it.
	keys := make([]string, len(states))
	for i, st := range states {
		keys[i] = st.key()
	}
	if err := writeLines(filepath.Join(dir, fileStates), keys); err != nil {
		return nil, err
	}
	// One reference network per state of the pool, built from scratch by
	// a separate session, never by the measured one.
	sess := scenario.NewSession(s.Net)
	defer sess.Close()
	var tasks []refTask
	for _, st := range states {
		if _, err := sess.SetStack(st.deltas()); err != nil {
			return nil, fmt.Errorf("reference state %s: %w", st.key(), err)
		}
		fresh := sess.MaterializeFresh()
		for i, q := range inv {
			tasks = append(tasks, refTask{Key: st.key() + "|" + queryKey(i), Net: fresh, Query: q, Fixed: true})
		}
	}
	return tasks, nil
}

func genAPI(seed int64, sz sizes, dir string) ([]refTask, error) {
	re := gen.RunningExample().Network
	zoo := gen.Zoo(gen.ZooOpts{Routers: sz.zooRouters, Seed: netSeed, Protection: true})
	if err := writeNetwork(dir, "re", re); err != nil {
		return nil, err
	}
	if err := writeNetwork(dir, "zoo", zoo.Net); err != nil {
		return nil, err
	}
	var zq []string
	for _, q := range zoo.Queries(sz.zooQueries, netSeed) {
		zq = append(zq, q.Text)
	}
	for _, f := range []struct {
		name  string
		lines []string
	}{{fileREQueries, runningExampleQueries}, {fileZooQueries, zq}, {fileWeights, apiWeights}} {
		if err := writeLines(filepath.Join(dir, f.name), f.lines); err != nil {
			return nil, err
		}
	}
	nq := []int{len(runningExampleQueries), len(zq)}
	for c := 0; c < apiClients; c++ {
		rng := rand.New(rand.NewSource(seed*apiClients + int64(c)))
		lines := make([]string, sz.apiRequests)
		for i := range lines {
			lines[i] = apiRequestLine(rng, c == 0 && (i+1)%scrapeEvery == 0, nq)
		}
		if err := writeLines(filepath.Join(dir, requestsFile(c)), lines); err != nil {
			return nil, err
		}
	}
	var tasks []refTask
	for _, n := range []struct {
		name string
		net  *network.Network
		qs   []string
	}{{"re", re, runningExampleQueries}, {"zoo", zoo.Net, zq}} {
		for i, q := range n.qs {
			for w := 0; w <= len(apiWeights); w++ {
				t := refTask{Key: apiKey(n.name, i, w), Net: n.net, Query: q, Fixed: true}
				if w == 0 {
					t.Explicit = true
				} else {
					t.Weight = apiWeights[w-1]
					t.SameVerdictAs = apiKey(n.name, i, 0)
				}
				tasks = append(tasks, t)
			}
		}
	}
	return tasks, nil
}

func requestsFile(client int) string { return fmt.Sprintf(seededPrefix+"requests-%d.txt", client) }

// apiRequestLine draws one api-warm request: "scrape", or the network
// index, the weight index (0 = unweighted, about a quarter weighted) and
// the query indices — one for POST /api/v1/verify, or for about a fifth of
// requests apiBatchSize consecutive ones (cyclically) for
// /api/v1/verify-batch. Consecutive windows keep the number of distinct
// batches small, so every run sees each of them many times and the slowest
// ones, which set the tail, recur in every run.
func apiRequestLine(rng *rand.Rand, scrape bool, nq []int) string {
	if scrape {
		return "scrape"
	}
	ni := rng.Intn(len(nq))
	wi := 0
	if rng.Intn(4) == 0 {
		wi = 1 + rng.Intn(len(apiWeights))
	}
	n := 1
	if rng.Intn(5) == 0 {
		n = apiBatchSize
	}
	first := rng.Intn(nq[ni])
	qs := make([]string, n)
	for i := range qs {
		qs[i] = fmt.Sprint((first + i) % nq[ni])
	}
	return fmt.Sprintf("%d %d %s", ni, wi, strings.Join(qs, ","))
}

func queryKey(i int) string { return fmt.Sprintf("q%d", i) }

// apiKey names one api-warm verification: network, query index and weight
// index (0 = unweighted, w = apiWeights[w-1]).
func apiKey(net string, q, w int) string { return fmt.Sprintf("%s|q%d|w%d", net, q, w) }

// liveState is the desired network state after a flush: failed links and
// drained routers, by canonical name.
type liveState struct {
	fails, drains []string
}

func (st liveState) key() string { return stateKey(st.fails, st.drains) }

func (st liveState) deltas() []scenario.Delta {
	var ds []scenario.Delta
	for _, r := range st.drains {
		ds = append(ds, scenario.Delta{Kind: scenario.DrainRouter, Router: r})
	}
	for _, l := range st.fails {
		ds = append(ds, scenario.Delta{Kind: scenario.FailLink, Link: l})
	}
	return ds
}

// stateKey renders a state independent of insertion order.
func stateKey(fails, drains []string) string {
	f := append([]string(nil), fails...)
	d := append([]string(nil), drains...)
	sort.Strings(f)
	sort.Strings(d)
	return "fail=" + strings.Join(f, ",") + ";drain=" + strings.Join(d, ",")
}

// liveFeed generates the whatif-live feed: batches of link-down/link-up and
// router-down/router-up (drain/undrain) events over a small fixed pool of
// core links and one router, each batch closed by an explicit flush. Every
// seventh batch cancels itself out, a fixed cadence so that the share of
// cheap skipped flushes, and with it ops per second, does not vary by seed.
// It returns the feed lines and every state a flush can leave behind, the
// initial one first.
func liveFeed(s *gen.Synth, seed int64, sz sizes) ([]string, []liveState, error) {
	// The pool is fixed, like the invariants; the seed draws the events.
	pick := rand.New(rand.NewSource(netSeed))
	rng := rand.New(rand.NewSource(seed))
	topo := s.Net.Topo
	// Core routers are all but the external stubs ("X-<edge router>") gen
	// attaches to edge routers.
	core := func(r topology.RouterID) bool { return !strings.HasPrefix(topo.Routers[r].Name, "X-") }
	var cand []string
	for l := 0; l < topo.NumLinks(); l++ {
		id := topology.LinkID(l)
		if core(topo.Source(id)) && core(topo.Target(id)) {
			cand = append(cand, topo.LinkName(id))
		}
	}
	if len(cand) < sz.livePoolLinks {
		return nil, nil, fmt.Errorf("only %d core links", len(cand))
	}
	var pool []string
	for _, i := range pick.Perm(len(cand))[:sz.livePoolLinks] {
		name, err := scenario.CanonicalLink(s.Net, cand[i])
		if err != nil {
			return nil, nil, err
		}
		pool = append(pool, name)
	}
	edge := map[topology.RouterID]bool{}
	for _, r := range s.Edge {
		edge[r] = true
	}
	var routers []string
	for r := range topo.Routers {
		if id := topology.RouterID(r); core(id) && !edge[id] {
			routers = append(routers, topo.Routers[r].Name)
		}
	}
	if len(routers) == 0 {
		return nil, nil, fmt.Errorf("no core router to drain")
	}
	router := routers[pick.Intn(len(routers))]

	ev := func(typ, field, name string) string {
		b, _ := json.Marshal(map[string]string{"type": typ, field: name})
		return string(b)
	}
	// Every state with at most two failed pool links, drained or not.
	states := []liveState{{}}
	for i := range pool {
		states = append(states, liveState{fails: []string{pool[i]}})
		for j := i + 1; j < len(pool); j++ {
			states = append(states, liveState{fails: []string{pool[i], pool[j]}})
		}
	}
	for _, st := range slices.Clone(states) {
		states = append(states, liveState{fails: st.fails, drains: []string{router}})
	}

	// The feed tours every state once per round in a seeded order, so each
	// run spends its flushes on the same mix of states. A round visits the
	// undrained states before the drained ones: draining re-verifies far
	// more than a link change, so a free order would make the number of
	// drain toggles, and the run's cost, vary by seed.
	half := len(states) / 2
	tour := func() []int {
		order := rng.Perm(half)
		for _, k := range rng.Perm(half) {
			order = append(order, half+k)
		}
		return order
	}
	var lines []string
	cur := states[0]
	for b := 0; b < sz.liveBatches; {
		for _, k := range tour() {
			if b >= sz.liveBatches {
				break
			}
			next := states[k]
			if next.key() == cur.key() {
				continue
			}
			if b%7 == 6 {
				l := pool[rng.Intn(len(pool))]
				for slices.Contains(cur.fails, l) {
					l = pool[rng.Intn(len(pool))]
				}
				lines = append(lines, ev("link-down", "link", l), ev("link-up", "link", l), `{"type":"flush"}`)
				b++
			}
			for _, l := range cur.fails {
				if !slices.Contains(next.fails, l) {
					lines = append(lines, ev("link-up", "link", l))
				}
			}
			for _, l := range next.fails {
				if !slices.Contains(cur.fails, l) {
					lines = append(lines, ev("link-down", "link", l))
				}
			}
			switch {
			case len(cur.drains) == 0 && len(next.drains) > 0:
				lines = append(lines, ev("router-down", "router", router))
			case len(cur.drains) > 0 && len(next.drains) == 0:
				lines = append(lines, ev("router-up", "router", router))
			}
			lines = append(lines, `{"type":"flush"}`)
			b++
			cur = next
		}
	}
	return lines, states, nil
}

func writeNetwork(dir, prefix string, net *network.Network) error {
	if err := writeFile(filepath.Join(dir, prefix+".topo.xml"), func(w io.Writer) error {
		return xmlio.WriteTopology(w, net)
	}); err != nil {
		return err
	}
	return writeFile(filepath.Join(dir, prefix+".routing.xml"), func(w io.Writer) error {
		return xmlio.WriteRouting(w, net)
	})
}

func writeLines(path string, lines []string) error {
	return writeFile(path, func(w io.Writer) error {
		for _, l := range lines {
			if _, err := io.WriteString(w, l+"\n"); err != nil {
				return err
			}
		}
		return nil
	})
}

func writeFile(path string, fill func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := fill(bw); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// readLines reads a generated list file (one entry per line).
func readLines(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return strings.Split(strings.TrimSuffix(string(data), "\n"), "\n"), nil
}

// readNetwork loads a generated network through the program's XML reader.
func readNetwork(dir, prefix string) (*network.Network, error) {
	topo, err := os.Open(filepath.Join(dir, prefix+".topo.xml"))
	if err != nil {
		return nil, err
	}
	defer topo.Close()
	route, err := os.Open(filepath.Join(dir, prefix+".routing.xml"))
	if err != nil {
		return nil, err
	}
	defer route.Close()
	return xmlio.ReadNetwork(bufio.NewReaderSize(topo, 1<<20), bufio.NewReaderSize(route, 1<<20))
}

// digestDir hashes the regular input files in dir, in name order: all of
// them, or with fixedOnly those that are the same for every seed, so a
// stored reference can prove it belongs to these inputs.
func digestDir(dir string, fixedOnly bool) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for _, e := range entries {
		if !e.Type().IsRegular() || e.Name() == fileRefs ||
			fixedOnly && strings.HasPrefix(e.Name(), seededPrefix) {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\n", e.Name())
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
