package main

import (
	"bytes"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aalwines/internal/engine"
	"aalwines/internal/query"
)

func TestInputsDeterministic(t *testing.T) {
	for _, wl := range workloadNames {
		t.Run(wl, func(t *testing.T) {
			a, b, c := t.TempDir(), t.TempDir(), t.TempDir()
			for _, d := range []struct {
				dir  string
				seed int64
			}{{a, 3}, {b, 3}, {c, 4}} {
				if _, err := generate(wl, d.seed, tinySizes, d.dir); err != nil {
					t.Fatal(err)
				}
			}
			entries, err := os.ReadDir(a)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				x, _ := os.ReadFile(filepath.Join(a, e.Name()))
				y, err := os.ReadFile(filepath.Join(b, e.Name()))
				if err != nil || !bytes.Equal(x, y) {
					t.Errorf("%s differs between two generations with seed 3", e.Name())
				}
			}
			da, _ := digestDir(a, false)
			db, _ := digestDir(b, false)
			dc, _ := digestDir(c, false)
			if da != db {
				t.Errorf("same seed, different digests")
			}
			if da == dc {
				t.Errorf("seeds 3 and 4 generated identical inputs")
			}
			fa, _ := digestDir(a, true)
			fc, _ := digestDir(c, true)
			if fa != fc {
				t.Errorf("seeds 3 and 4 generated different fixed inputs")
			}
		})
	}
}

// TestSmoke runs every workload at tiny scale, untraced and traced, and
// requires every op to pass the oracle.
func TestSmoke(t *testing.T) {
	for _, wl := range workloadNames {
		dir := t.TempDir()
		rf, err := prepare(wl, 1, tinySizes, dir, "")
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		for _, trace := range []bool{false, true} {
			out, err := runWorker(workerConfig{Workload: wl, Seed: 1, Dir: dir, Seconds: 0.4, Trace: trace})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, trace, err)
			}
			failed, decided, msgs := judge(out.Ops, rf.Refs)
			if len(out.Ops) == 0 || failed != 0 {
				t.Errorf("%s trace=%v: %d ops, %d failed: %v", wl, trace, len(out.Ops), failed, msgs)
			}
			if decided == 0 || len(out.SetupS) != setupRuns || out.PeakRSSMB <= 0 {
				t.Errorf("%s trace=%v: decided=%d setups=%v rss=%g", wl, trace, decided, out.SetupS, out.PeakRSSMB)
			}
			if trace && (len(out.Summary) == 0 || out.Layers["pds.saturate_ms"] <= 0) {
				t.Errorf("%s: traced run reported no layers: %+v", wl, out.Summary)
			}
		}
	}
}

// TestOracleRejects checks that the oracle has teeth: a flipped reference
// verdict, a witness that does not match its query and a tampered witness
// all fail.
func TestOracleRejects(t *testing.T) {
	dir := t.TempDir()
	rf, err := prepare(wlPaper, 1, tinySizes, dir, "")
	if err != nil {
		t.Fatal(err)
	}
	out, err := runWorker(workerConfig{Workload: wlPaper, Seed: 1, Dir: dir, Seconds: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	key := out.Ops[0].Outcomes[0].Key
	flipped := map[string]ref{}
	for k, r := range rf.Refs {
		flipped[k] = r
	}
	r := flipped[key]
	r.Verdict = map[string]string{"satisfied": "unsatisfied"}[r.Verdict]
	flipped[key] = r
	if failed, _, msgs := judge(out.Ops[:1], flipped); failed != 1 || !strings.Contains(msgs[0], "verdict") {
		t.Errorf("flipped reference: failed=%d %v", failed, msgs)
	}

	net, err := readNetwork(dir, "net")
	if err != nil {
		t.Fatal(err)
	}
	texts, err := readLines(filepath.Join(dir, fileQueries))
	if err != nil {
		t.Fatal(err)
	}
	for _, text := range texts {
		q, err := query.Parse(text, net)
		if err != nil {
			t.Fatal(err)
		}
		res, err := engine.Verify(net, q, engine.Options{})
		if err != nil || res.Verdict != engine.Satisfied || len(res.Trace) < 3 {
			continue
		}
		if err := checkResult(net, res, q); err != nil {
			t.Fatalf("genuine witness rejected: %v", err)
		}
		oneLink, err := query.Parse(fmt.Sprintf("<.*> . <.*> %d", q.MaxFailures), net)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkResult(net, res, oneLink); err == nil || !strings.Contains(err.Error(), "path") {
			t.Errorf("%d-step witness accepted for a one-link query: %v", len(res.Trace), err)
		}
		res.Trace = append(res.Trace[:1], res.Trace[2:]...)
		if checkResult(net, res, q) == nil {
			t.Errorf("%q: witness with a step removed still replays", text)
		}
		return
	}
	t.Fatal("no satisfied query with a witness of 3+ steps")
}

var update = flag.Bool("update", false, "recompute the stored references in perfbench/refs")

// TestStoredRefs checks that every stored reference file belongs to the
// fixed inputs the generator writes now and covers every fixed
// verification. With -update it recomputes them, in about 3 minutes on a
// 2-CPU machine, most of it the Moped-style saturator on whatif-live.
func TestStoredRefs(t *testing.T) {
	for _, wl := range workloadNames {
		t.Run(wl, func(t *testing.T) {
			dir := t.TempDir()
			tasks, err := generate(wl, defaultSeed, fullSizes, dir)
			if err != nil {
				t.Fatal(err)
			}
			digest, err := digestDir(dir, true)
			if err != nil {
				t.Fatal(err)
			}
			var fixed []refTask
			for _, task := range tasks {
				if task.Fixed {
					fixed = append(fixed, task)
				}
			}
			path := filepath.Join("refs", wl+".json")
			if *update {
				refs, err := computeRefs(fixed, false)
				if err == nil {
					err = sameVerdicts(fixed, refs)
				}
				if err != nil {
					t.Fatal(err)
				}
				if err := writeRefs(path, refFile{Workload: wl, FixedSHA256: digest, Refs: refs}); err != nil {
					t.Fatal(err)
				}
				return
			}
			st, err := readRefs(path)
			if err != nil {
				t.Fatal(err)
			}
			if st.FixedSHA256 != digest {
				t.Fatalf("%s belongs to other inputs; regenerate with go test -run TestStoredRefs -update", path)
			}
			keys := map[string]bool{}
			for _, task := range fixed {
				keys[task.Key] = true
			}
			if !maps.Equal(keys, mapKeys(st.Refs)) {
				t.Errorf("%s covers other verifications than the fixed inputs ask for", path)
			}
		})
	}
}

func mapKeys(refs map[string]ref) map[string]bool {
	keys := make(map[string]bool, len(refs))
	for k := range refs {
		keys[k] = true
	}
	return keys
}

// TestPrepareStoredRefs checks that prepare takes the fixed references
// from a matching stored file and computes only the seeded ones, and that
// with a stored file for other inputs it falls back to the dual engine.
func TestPrepareStoredRefs(t *testing.T) {
	fresh, err := prepare(wlPaper, 1, tinySizes, t.TempDir(), "")
	if err != nil {
		t.Fatal(err)
	}
	stored := refFile{Workload: wlPaper, FixedSHA256: fresh.FixedSHA256, Refs: map[string]ref{}}
	for k, r := range fresh.Refs {
		if r.Engine == "dual+witness" {
			r.Engine = "stored"
			stored.Refs[k] = r
		}
	}
	path := filepath.Join(t.TempDir(), "stored.json")
	if err := writeRefs(path, stored); err != nil {
		t.Fatal(err)
	}
	rf, err := prepare(wlPaper, 2, tinySizes, t.TempDir(), path)
	if err != nil {
		t.Fatal(err)
	}
	if rf.Stored != len(stored.Refs) || len(rf.Refs) != len(fresh.Refs) {
		t.Errorf("seed 2: %d stored of %d refs, want %d of %d", rf.Stored, len(rf.Refs), len(stored.Refs), len(fresh.Refs))
	}
	for k, r := range rf.Refs {
		if _, ok := stored.Refs[k]; ok != (r.Engine == "stored") {
			t.Errorf("%s: engine %s", k, r.Engine)
		}
	}

	rf, err = prepare(wlAPI, 1, tinySizes, t.TempDir(), path)
	if err != nil {
		t.Fatal(err)
	}
	for k, r := range rf.Refs {
		if r.Engine != engDual && r.Engine != engDual+"+explicit" {
			t.Errorf("fallback %s: engine %s, want the dual engine", k, r.Engine)
		}
	}
}
