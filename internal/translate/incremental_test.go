package translate_test

import (
	"reflect"
	"testing"

	"aalwines/internal/gen"
	"aalwines/internal/network"
	"aalwines/internal/routing"
	"aalwines/internal/translate"
	"aalwines/internal/weight"
)

// sameSystem asserts that two builds of the same (network, query, options)
// produced byte-identical pushdown systems: rules in the same order with
// the same states, symbols, weight vectors and tags, the same state count,
// step table and final specification.
func sameSystem(t *testing.T, ctx string, got, want *translate.System) {
	t.Helper()
	if got.PDS.NumStates != want.PDS.NumStates {
		t.Errorf("%s: NumStates = %d, want %d", ctx, got.PDS.NumStates, want.PDS.NumStates)
	}
	if !reflect.DeepEqual(got.PDS.Rules, want.PDS.Rules) {
		t.Errorf("%s: rules differ (%d vs %d)", ctx, len(got.PDS.Rules), len(want.PDS.Rules))
	} else {
		// Equal weight ids are not enough: each id must resolve to the same
		// vector in its own system's weight table.
		for i, r := range got.PDS.Rules {
			gw, ww := got.PDS.Weight(r.Weight), want.PDS.Weight(want.PDS.Rules[i].Weight)
			if !reflect.DeepEqual(gw, ww) {
				t.Errorf("%s: rule %d weight %v, want %v", ctx, i, gw, ww)
				break
			}
		}
	}
	if !reflect.DeepEqual(got.Steps, want.Steps) {
		t.Errorf("%s: step tables differ", ctx)
	}
	if !reflect.DeepEqual(got.FinalStates, want.FinalStates) {
		t.Errorf("%s: final states differ", ctx)
	}
	if got.RulesBeforeReduction != want.RulesBeforeReduction {
		t.Errorf("%s: RulesBeforeReduction = %d, want %d",
			ctx, got.RulesBeforeReduction, want.RulesBeforeReduction)
	}
}

func optionMatrix() []translate.Options {
	spec := weight.Spec{{{Coeff: 1, Q: weight.Hops}}}
	return []translate.Options{
		{Mode: translate.Over},
		{Mode: translate.Under},
		{Mode: translate.Over, NoReductions: true},
		{Mode: translate.Over, Spec: spec},
		{Mode: translate.Under, Spec: spec},
	}
}

// TestBuildIncrementalMatchesBuild checks the incremental builder's core
// contract on both an all-rebuild (cold store) and an all-splice (warm
// store) pass: the assembled system is indistinguishable from a plain
// Build.
func TestBuildIncrementalMatchesBuild(t *testing.T) {
	re := gen.RunningExample()
	queries := []string{
		"<ip> [.#v0] .* [v3#.] <ip> 0",
		"<s40 ip> [.#v0] .* [v3#.] <smpls ip> 0",
		"<ip> [.#v0] .* [v3#.] <ip> 2",
	}
	for _, qt := range queries {
		q := mustParse(t, qt, re.Network)
		for _, opts := range optionMatrix() {
			want := translate.Build(re.Network, q, opts)
			store := translate.NewBlockStore()
			ver := func(routing.Key) uint64 { return 0 }

			cold, st := translate.BuildIncremental(re.Network, q, opts, store, ver)
			nKeys := len(re.Network.Routing.Keys())
			if st.BlocksRebuilt != nKeys || st.BlocksReused != 0 {
				t.Errorf("cold build: stats = %+v, want %d rebuilt", st, nKeys)
			}
			sameSystem(t, "cold "+qt, cold, want)

			warm, st := translate.BuildIncremental(re.Network, q, opts, store, ver)
			if st.BlocksReused != nKeys || st.BlocksRebuilt != 0 {
				t.Errorf("warm build: stats = %+v, want %d reused", st, nKeys)
			}
			sameSystem(t, "warm "+qt, warm, want)
		}
	}
}

// TestBuildIncrementalZoo repeats the equivalence check on a synthesised
// zoo network with protection tunnels — the workload the scenario bench
// measures.
func TestBuildIncrementalZoo(t *testing.T) {
	s := gen.Zoo(gen.ZooOpts{Routers: 16, Seed: 7, Protection: true})
	for _, gq := range s.Queries(6, 7) {
		q := mustParse(t, gq.Text, s.Net)
		opts := translate.Options{Mode: translate.Over}
		want := translate.Build(s.Net, q, opts)
		store := translate.NewBlockStore()
		ver := func(routing.Key) uint64 { return 0 }
		cold, _ := translate.BuildIncremental(s.Net, q, opts, store, ver)
		sameSystem(t, "cold "+gq.Text, cold, want)
		warm, st := translate.BuildIncremental(s.Net, q, opts, store, ver)
		if st.BlocksRebuilt != 0 {
			t.Errorf("warm build rebuilt %d blocks", st.BlocksRebuilt)
		}
		sameSystem(t, "warm "+gq.Text, warm, want)
	}
}

// TestBuildIncrementalPartialInvalidation mutates one routing key between
// builds and checks that (a) only that key's block is rebuilt and (b) the
// result matches a from-scratch build of the mutated network.
func TestBuildIncrementalPartialInvalidation(t *testing.T) {
	re := gen.RunningExample()
	q := mustParse(t, "<ip> [.#v0] .* [v3#.] <ip> 2", re.Network)
	opts := translate.Options{Mode: translate.Over}

	keys := re.Network.Routing.Keys()
	if len(keys) < 2 {
		t.Fatal("need at least two routing keys")
	}
	victim := keys[len(keys)/2]

	store := translate.NewBlockStore()
	vers := map[routing.Key]uint64{}
	ver := func(k routing.Key) uint64 { return vers[k] }
	translate.BuildIncremental(re.Network, q, opts, store, ver)

	// Mutate: drop the victim key's lowest-priority group (simulating a
	// delta that removes a backup entry), bump only its version.
	gs := re.Network.Routing.Lookup(victim.In, victim.Top)
	mutated := &network.Network{
		Name:    re.Network.Name,
		Topo:    re.Network.Topo,
		Labels:  re.Network.Labels,
		Routing: routing.NewTable(),
	}
	for _, k := range keys {
		cur := re.Network.Routing.Lookup(k.In, k.Top)
		if k == victim {
			cur = cur[:len(cur)-1]
		}
		mutated.Routing.SetGroups(k.In, k.Top, cur)
	}
	vers[victim] = 1

	want := translate.Build(mutated, q, opts)
	got, st := translate.BuildIncremental(mutated, q, opts, store, ver)
	sameSystem(t, "mutated", got, want)
	if len(gs) > 0 && st.BlocksRebuilt > 1 {
		t.Errorf("mutating one key rebuilt %d blocks", st.BlocksRebuilt)
	}
	wantReused := len(mutated.Routing.Keys()) - st.BlocksRebuilt
	if st.BlocksReused != wantReused {
		t.Errorf("reused %d blocks, want %d", st.BlocksReused, wantReused)
	}

	// Undo: restoring the version restores a full-splice build of the
	// original network.
	vers[victim] = 0
	wantOrig := translate.Build(re.Network, q, opts)
	back, st := translate.BuildIncremental(re.Network, q, opts, store, ver)
	if st.BlocksRebuilt != 0 {
		t.Errorf("undo rebuilt %d blocks, want 0", st.BlocksRebuilt)
	}
	sameSystem(t, "undo", back, wantOrig)
}

// TestSessionCacheGet exercises the assembled-system layer: repeated gets
// under one fingerprint hit, a fingerprint change reassembles
// incrementally, and results always match a plain Build against the
// current overlay.
func TestSessionCacheGet(t *testing.T) {
	re := gen.RunningExample()
	q := mustParse(t, "<ip> [.#v0] .* [v3#.] <ip> 1", re.Network)
	opts := translate.Options{Mode: translate.Over}

	sc := translate.NewSessionCache(re.Network)
	if sc.Net() != re.Network {
		t.Fatal("fresh session cache must serve the base network")
	}
	sys1, init1 := sc.Get(q, opts)
	sameSystem(t, "base", sys1, translate.Build(re.Network, q, opts))
	if init1 == nil {
		t.Fatal("nil init automaton")
	}
	sys2, init2 := sc.Get(q, opts)
	if sys2 != sys1 {
		t.Error("same-fingerprint get must return the shared system")
	}
	if init2 == init1 {
		t.Error("init automata must be private clones")
	}
	if st := sc.Stats(); st.Hits != 1 || st.Gets != 2 {
		t.Errorf("stats = %+v, want 1 hit of 2 gets", st)
	}

	// Install an overlay (here: the same network content under a new
	// fingerprint, the degenerate delta) and check reassembly is served
	// entirely from the block store.
	sc.SetOverlay(re.Network, 1, func(routing.Key) uint64 { return 0 })
	sys3, _ := sc.Get(q, opts)
	sameSystem(t, "overlay", sys3, translate.Build(re.Network, q, opts))
	if bs := sc.BlockStats(); bs.BlocksReused == 0 {
		t.Errorf("block stats = %+v, want reuse on refingerprinted overlay", bs)
	}
}
