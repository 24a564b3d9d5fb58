package main

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"aalwines/internal/live"
	"aalwines/internal/network"
	"aalwines/internal/query"
	"aalwines/internal/scenario"
)

// hubWorkers is the batch pool size of the live hub.
const hubWorkers = 2

// drainTimeout bounds the wait for a flush's watch events.
const drainTimeout = 60 * time.Second

// whatifLive replays a seeded feed of link and router events through the
// live ingester into a session watched on a fixed invariant set. An op is
// one flush: from its flush event until the watch's events are drained.
type whatifLive struct {
	invariants []string
	feed       []string
	pos        int

	base  *network.Network
	sess  *scenario.Session
	hub   *live.Hub
	watch *live.Watch
	ing   *live.Ingester
	cells map[string]*live.Cell

	// snaps holds every op's state and cells, in op order, for the
	// witness replay after timing.
	snaps []liveSnap

	// Traced-phase samples.
	ingestUS, events, reverifyMS, setStackMS []float64
	skipped, gaps, reused, rebuilt           int
}

type liveSnap struct {
	state string
	cells []*live.Cell
}

func (w *whatifLive) load(dir string) (err error) {
	if w.invariants, err = readLines(filepath.Join(dir, fileInvariants)); err != nil {
		return err
	}
	w.feed, err = readLines(filepath.Join(dir, fileFeed))
	return err
}

func (w *whatifLive) setup(dir string) (time.Duration, error) {
	t0 := time.Now()
	base, err := readNetwork(dir, "net")
	if err != nil {
		return 0, err
	}
	read := time.Since(t0)
	base.Routing.Keys()
	w.base = base
	w.sess = scenario.NewSession(base)
	w.hub = live.NewHub(w.sess, live.HubOptions{Workers: hubWorkers})
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if w.watch, err = w.hub.AddWatch(ctx, w.invariants, 0); err != nil {
		return 0, err
	}
	w.cells = map[string]*live.Cell{}
	if _, err := w.drain(len(w.invariants)); err != nil {
		return 0, fmt.Errorf("initial cells: %w", err)
	}
	w.ing = live.NewIngester(w.sess, live.Options{Hub: w.hub})
	w.pos = 0
	return read, nil
}

func (w *whatifLive) teardown() {
	if w.hub != nil {
		w.hub.Close("teardown")
		w.sess.Close()
	}
	w.hub, w.sess, w.watch, w.ing = nil, nil, nil, nil
}

// drain collects watch events until n verdict events (or dropped events
// reported by gaps) have arrived, and returns the number of gaps.
func (w *whatifLive) drain(n int) (gaps int, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	for n > 0 {
		evs, open := w.watch.Next(ctx, 0)
		if !open {
			return gaps, fmt.Errorf("watch closed")
		}
		if err := ctx.Err(); err != nil {
			return gaps, fmt.Errorf("waiting for %d watch events: %w", n, err)
		}
		for _, ev := range evs {
			switch ev.Type {
			case "verdict":
				w.cells[ev.Query] = ev.Cell
				n--
			case "gap":
				gaps++
				n -= int(ev.Dropped)
			case "close":
				return gaps, fmt.Errorf("watch closed: %s", ev.Reason)
			}
		}
	}
	return gaps, nil
}

func (w *whatifLive) run(p *phase, deadline time.Time, rec *recorder) error {
	ctx := context.Background()
	for w.pos < len(w.feed) && time.Now().Before(deadline) {
		line := w.feed[w.pos]
		w.pos++
		op := len(w.snaps) + 1
		t0 := time.Now()
		ev, err := live.ParseEvent(line)
		if err != nil {
			return fmt.Errorf("feed line %d: %w", w.pos, err)
		}
		if _, err := w.ing.Ingest(ev); err != nil {
			return fmt.Errorf("feed line %d: %w", w.pos, err)
		}
		t1 := time.Now()
		if ev.Type != "flush" {
			if rec != nil {
				rec.add(op, 0, "live.ingest", t0, t1)
				w.ingestUS = append(w.ingestUS, float64(t1.Sub(t0))/float64(time.Microsecond))
			}
			continue
		}
		info, err := w.ing.Flush(ctx)
		if err != nil {
			return fmt.Errorf("flush %d: %w", op, err)
		}
		t2 := time.Now()
		gaps, err := w.drain(info.Changed)
		if err != nil {
			return fmt.Errorf("flush %d: %w", op, err)
		}
		t3 := time.Now()

		snap := liveSnap{state: w.stateKey(), cells: make([]*live.Cell, len(w.invariants))}
		res := opResult{MS: ms(t3.Sub(t0)), Outcomes: make([]outcome, len(w.invariants))}
		for i, inv := range w.invariants {
			c := w.cells[inv]
			snap.cells[i] = c
			res.Outcomes[i] = outcome{Key: snap.state + "|" + queryKey(i), Verdict: c.Verdict, Err: c.Error}
		}
		if gaps > 0 {
			res.Err = fmt.Sprintf("watch lost events (%d gaps)", gaps)
		}
		w.snaps = append(w.snaps, snap)
		p.ops = append(p.ops, res)

		if rec == nil {
			continue
		}
		reverify := time.Duration(info.ReverifyMS * float64(time.Millisecond))
		opID := rec.add(op, 0, "op", t0, t3)
		rec.add(op, opID, "live.ingest", t0, t1)
		fID := rec.add(op, opID, "live.flush", t1, t2)
		rec.sequence(op, fID, t1,
			namedDur{"scenario.set_stack", t2.Sub(t1) - reverify},
			namedDur{"live.reverify", reverify})
		rec.add(op, opID, "live.drain", t2, t3)
		w.events = append(w.events, float64(info.Events))
		w.setStackMS = append(w.setStackMS, ms(t2.Sub(t1)-reverify))
		if info.Skipped {
			w.skipped++
		} else {
			w.reverifyMS = append(w.reverifyMS, info.ReverifyMS)
		}
		w.gaps += gaps
		w.reused += info.Blocks.BlocksReused
		w.rebuilt += info.Blocks.BlocksRebuilt
	}
	return nil
}

// stateKey renders the ingester's current desired state.
func (w *whatifLive) stateKey() string {
	var fails, drains []string
	for _, d := range w.ing.Stack() {
		switch d.Kind {
		case scenario.FailLink:
			fails = append(fails, d.Link)
		case scenario.DrainRouter:
			drains = append(drains, d.Router)
		}
	}
	return stateKey(fails, drains)
}

// parseStateKey inverts stateKey.
func parseStateKey(key string) liveState {
	var st liveState
	for _, part := range strings.Split(key, ";") {
		name, list, _ := strings.Cut(part, "=")
		if list == "" {
			continue
		}
		switch name {
		case "fail":
			st.fails = strings.Split(list, ",")
		case "drain":
			st.drains = strings.Split(list, ",")
		}
	}
	return st
}

// verify replays every distinct witness a flush left in the watch's cells
// on a from-scratch materialisation of that flush's state, one state at a
// time.
func (w *whatifLive) verify(ops []opResult) error {
	type at struct{ op, inv int }
	byState := map[string][]at{}
	var states []string
	for i, snap := range w.snaps {
		for j, c := range snap.cells {
			if c.Verdict != "satisfied" {
				continue
			}
			if byState[snap.state] == nil {
				states = append(states, snap.state)
			}
			byState[snap.state] = append(byState[snap.state], at{i, j})
		}
	}
	ref := scenario.NewSession(w.base)
	defer ref.Close()
	for _, state := range states {
		if _, err := ref.SetStack(parseStateKey(state).deltas()); err != nil {
			return fmt.Errorf("state %s: %w", state, err)
		}
		rp := newReplayer(ref.MaterializeFresh())
		qs := make([]*query.Query, len(w.invariants))
		for i, inv := range w.invariants {
			q, err := query.Parse(inv, rp.net)
			if err != nil {
				return err
			}
			qs[i] = q
		}
		checked := map[*live.Cell]error{}
		for _, a := range byState[state] {
			c := w.snaps[a.op].cells[a.inv]
			err, ok := checked[c]
			if !ok {
				steps := make([]step, len(c.Trace))
				for k, s := range c.Trace {
					steps[k] = step{Link: s.Link, Header: s.Header}
				}
				err = rp.check(steps, c.Failed, qs[a.inv])
				checked[c] = err
			}
			if err != nil {
				ops[a.op].Outcomes[a.inv].Err = err.Error()
			}
		}
	}
	return nil
}

func (w *whatifLive) layers(p *phase, _ *recorder) map[string]float64 {
	n := float64(len(p.ops))
	reverifyS := mean(w.reverifyMS) * float64(len(w.reverifyMS)) / 1000
	return map[string]float64{
		"query.path_nfa_states":       mean(pathNFAStates(w.base, w.invariants)),
		"translate.blocks_rebuilt":    ratio(float64(w.rebuilt), n),
		"translate.block_reuse_ratio": ratio(float64(w.reused), float64(w.reused+w.rebuilt)),
		"batch.busy_ratio":            ratio(floatCounterDelta(p, "batch_worker_busy_seconds_total"), hubWorkers*reverifyS),
		"scenario.set_stack_ms":       mean(w.setStackMS),
		"live.reverify_ms":            mean(w.reverifyMS),
		"live.ingest_us":              mean(w.ingestUS),
		"live.events_per_flush":       mean(w.events),
		"live.skipped_flush_ratio":    ratio(float64(w.skipped), n),
		"live.watch_gaps":             float64(w.gaps),
	}
}

// pathNFAStates returns the path-NFA size of each query, compiled outside
// any timed interval.
func pathNFAStates(net *network.Network, texts []string) []float64 {
	var states []float64
	for _, t := range texts {
		if q, err := query.Parse(t, net); err == nil {
			states = append(states, float64(q.PathNFA.NumStates()))
		}
	}
	return states
}
