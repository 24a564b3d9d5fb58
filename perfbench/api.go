package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aalwines/internal/cli"
	"aalwines/internal/httpapi"
	"aalwines/internal/network"
	"aalwines/internal/query"
)

const (
	// apiClients is the number of closed-loop keep-alive clients.
	apiClients = 2
	// apiBatchSize is the number of queries in a verify-batch request.
	apiBatchSize = 4
	// scrapeEvery makes every scrapeEvery-th request of client 0 a
	// GET /metrics scrape.
	scrapeEvery = 32
	// headerOp carries the op number and its span ID to the server-side
	// timing wrapper of a traced run.
	headerOp = "X-Bench-Op"
)

// apiNet is one registered network with its query set.
type apiNet struct {
	key     string // "re" or "zoo", the reference-key prefix
	net     *network.Network
	queries []string
}

// apiWarm drives the v1 HTTP API on loopback with two closed-loop clients
// over the running example and zoo-30, after warming the translation
// cache. An op is one HTTP request.
type apiWarm struct {
	queries  [][]string // per network
	weights  []string
	schedule [apiClients][]apiRequest

	nets []apiNet

	handler http.Handler
	srv     *http.Server
	served  chan struct{}
	base    string
	client  *http.Client

	opSeq atomic.Int64
	// rec is the recorder of the running phase, read by the server-side
	// wrapper (nil when untraced).
	rec atomic.Pointer[recorder]

	// witnesses holds every op's satisfied witnesses, in op order, for the
	// replay after timing.
	witnesses [][]apiWitness

	// Traced-phase records, paired by op number after the phase.
	mu       sync.Mutex
	handlers map[int64]handlerRec
	clients  []clientRec
}

// apiRequest is one scheduled request: a /metrics scrape, or verifications
// of queries qs of network ni under weight wi (0 = unweighted).
type apiRequest struct {
	scrape bool
	ni, wi int
	qs     []int
}

type apiWitness struct {
	out    int // outcome index within the op
	net    int
	query  int
	trace  []step
	failed []string
}

type handlerRec struct {
	id         int
	start, end time.Time
}

type clientRec struct {
	op         int64
	scrape     bool
	start, end time.Time
	timings    []cli.Timings
	sizes      []cli.Sizes
}

func (w *apiWarm) load(dir string) error {
	w.queries = nil
	for _, f := range []string{fileREQueries, fileZooQueries} {
		qs, err := readLines(filepath.Join(dir, f))
		if err != nil {
			return err
		}
		w.queries = append(w.queries, qs)
	}
	var err error
	if w.weights, err = readLines(filepath.Join(dir, fileWeights)); err != nil {
		return err
	}
	for c := range w.schedule {
		lines, err := readLines(filepath.Join(dir, requestsFile(c)))
		if err != nil {
			return err
		}
		w.schedule[c] = make([]apiRequest, len(lines))
		for i, l := range lines {
			if w.schedule[c][i], err = parseRequest(l); err != nil {
				return fmt.Errorf("%s line %d: %w", requestsFile(c), i+1, err)
			}
		}
	}
	return nil
}

func parseRequest(line string) (apiRequest, error) {
	if line == "scrape" {
		return apiRequest{scrape: true}, nil
	}
	var r apiRequest
	var qs string
	if _, err := fmt.Sscanf(line, "%d %d %s", &r.ni, &r.wi, &qs); err != nil {
		return r, err
	}
	for _, q := range strings.Split(qs, ",") {
		n, err := strconv.Atoi(q)
		if err != nil {
			return r, err
		}
		r.qs = append(r.qs, n)
	}
	return r, nil
}

func (w *apiWarm) setup(dir string) (time.Duration, error) {
	var read time.Duration
	w.nets = w.nets[:0]
	for i, key := range []string{"re", "zoo"} {
		t0 := time.Now()
		nw, err := readNetwork(dir, key)
		if err != nil {
			return 0, err
		}
		read += time.Since(t0)
		w.nets = append(w.nets, apiNet{key: key, net: nw, queries: w.queries[i]})
	}
	s := httpapi.NewServer()
	for _, n := range w.nets {
		s.Register(n.net)
	}
	w.handler = s.Handler()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	w.srv = &http.Server{Handler: http.HandlerFunc(w.serve)}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		// ErrServerClosed on teardown; any other failure fails the requests.
		_ = w.srv.Serve(ln)
	}()
	w.base = "http://" + ln.Addr().String()
	w.client = &http.Client{
		Timeout:   time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: apiClients, DisableCompression: true},
	}
	// Warm the translation cache: every query under every weight.
	for ni, n := range w.nets {
		for wi := 0; wi <= len(w.weights); wi++ {
			qs := make([]int, len(n.queries))
			for i := range qs {
				qs[i] = i
			}
			if err := w.verifyBatch(ni, qs, wi); err != nil {
				return 0, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return read, nil
}

func (w *apiWarm) teardown() {
	if w.srv == nil {
		return
	}
	w.srv.Close()
	<-w.served
	w.client.CloseIdleConnections()
	w.srv, w.client = nil, nil
}

// serve is the server's root handler: the API handler, timed when a traced
// phase is running.
func (w *apiWarm) serve(rw http.ResponseWriter, r *http.Request) {
	rec := w.rec.Load()
	if rec == nil {
		w.handler.ServeHTTP(rw, r)
		return
	}
	op, parent := parseOpHeader(r.Header.Get(headerOp))
	id := rec.reserve()
	start := time.Now()
	w.handler.ServeHTTP(rw, r)
	end := time.Now()
	name := "httpapi.handler"
	if r.URL.Path == "/metrics" {
		name = "obs.scrape"
	}
	rec.put(id, int(op), parent, name, start, end)
	w.mu.Lock()
	w.handlers[op] = handlerRec{id: id, start: start, end: end}
	w.mu.Unlock()
}

func parseOpHeader(v string) (op int64, parent int) {
	a, b, _ := strings.Cut(v, "/")
	op, _ = strconv.ParseInt(a, 10, 64)
	parent, _ = strconv.Atoi(b)
	return op, parent
}

func (w *apiWarm) run(p *phase, deadline time.Time, rec *recorder) error {
	if rec != nil {
		w.handlers = map[int64]handlerRec{}
		w.clients = nil
		w.rec.Store(rec)
		defer w.rec.Store(nil)
	}
	type clientOut struct {
		ops       []opResult
		witnesses [][]apiWitness
	}
	outs := make([]clientOut, apiClients)
	var wg sync.WaitGroup
	for c := 0; c < apiClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Each phase replays the client's schedule from its start.
			out := &outs[c]
			sched := w.schedule[c]
			for n := 0; time.Now().Before(deadline); n++ {
				op, wits := w.request(sched[n%len(sched)], rec)
				out.ops = append(out.ops, op)
				out.witnesses = append(out.witnesses, wits)
			}
		}(c)
	}
	wg.Wait()
	for _, o := range outs {
		p.ops = append(p.ops, o.ops...)
		w.witnesses = append(w.witnesses, o.witnesses...)
	}
	return nil
}

// request sends one scheduled request and returns the op with its
// satisfied witnesses.
func (w *apiWarm) request(ar apiRequest, rec *recorder) (opResult, []apiWitness) {
	op := w.opSeq.Add(1)
	opID := rec.reserve()
	cr := clientRec{op: op, scrape: ar.scrape}
	ni, qs := ar.ni, ar.qs
	var req *http.Request
	var err error
	keys := make([]string, len(qs))
	if ar.scrape {
		req, err = http.NewRequest(http.MethodGet, w.base+"/metrics", nil)
	} else {
		for i, q := range qs {
			keys[i] = apiKey(w.nets[ni].key, q, ar.wi)
		}
		req, err = w.verifyRequest(ni, qs, ar.wi)
	}
	if err != nil {
		return opResult{Err: err.Error()}, nil
	}
	if rec != nil {
		req.Header.Set(headerOp, fmt.Sprintf("%d/%d", op, opID))
	}
	cr.start = time.Now()
	status, body, err := w.do(req)
	cr.end = time.Now()
	res := opResult{MS: ms(cr.end.Sub(cr.start))}
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("%s: status %d: %s", req.URL.Path, status, bytes.TrimSpace(body))
	}
	if err != nil {
		res.Err = err.Error()
		return res, nil
	}
	var wits []apiWitness
	switch {
	case ar.scrape:
		if !bytes.Contains(body, []byte("engine_runs_total")) {
			res.Err = "metrics scrape lacks engine_runs_total"
		}
	case len(qs) == 1:
		var r cli.ResultJSON
		if err := json.Unmarshal(body, &r); err != nil {
			res.Err = err.Error()
			break
		}
		res.Outcomes = []outcome{{Key: keys[0], Verdict: r.Verdict, Weight: r.Weight}}
		wits = appendWitness(wits, 0, ni, qs[0], r)
		cr.timings, cr.sizes = []cli.Timings{r.TimingMS}, []cli.Sizes{r.Sizes}
	default:
		var br httpapi.VerifyBatchResponse
		if err := json.Unmarshal(body, &br); err != nil {
			res.Err = err.Error()
			break
		}
		if len(br.Results) != len(qs) {
			res.Err = fmt.Sprintf("batch returned %d results for %d queries", len(br.Results), len(qs))
			break
		}
		for i, it := range br.Results {
			o := outcome{Key: keys[i], Verdict: it.Verdict, Weight: it.Weight, Err: it.Error}
			res.Outcomes = append(res.Outcomes, o)
			wits = appendWitness(wits, i, ni, qs[i], it.ResultJSON)
			cr.timings = append(cr.timings, it.TimingMS)
			cr.sizes = append(cr.sizes, it.Sizes)
		}
	}
	if rec != nil {
		rec.put(opID, int(op), 0, "op", cr.start, cr.end)
		w.mu.Lock()
		w.clients = append(w.clients, cr)
		w.mu.Unlock()
	}
	return res, wits
}

func appendWitness(wits []apiWitness, out, ni, qi int, r cli.ResultJSON) []apiWitness {
	if r.Verdict != "satisfied" {
		return wits
	}
	steps := make([]step, len(r.Trace))
	for i, s := range r.Trace {
		steps[i] = step{Link: s.Link, Header: s.Header}
	}
	return append(wits, apiWitness{out: out, net: ni, query: qi, trace: steps, failed: r.Failed})
}

// verifyRequest builds a POST /api/v1/verify (one query) or
// /api/v1/verify-batch (several) request.
func (w *apiWarm) verifyRequest(ni int, qs []int, wi int) (*http.Request, error) {
	n := w.nets[ni]
	weight := ""
	if wi > 0 {
		weight = w.weights[wi-1]
	}
	var path string
	var body any
	if len(qs) == 1 {
		path = "/api/v1/verify"
		body = httpapi.VerifyRequest{Network: n.net.Name, Query: n.queries[qs[0]], Weight: weight}
	} else {
		path = "/api/v1/verify-batch"
		texts := make([]string, len(qs))
		for i, q := range qs {
			texts[i] = n.queries[q]
		}
		// One batch worker keeps the server within the client count's
		// share of the CPUs.
		body = httpapi.VerifyBatchRequest{Network: n.net.Name, Queries: texts, Weight: weight, Workers: 1}
	}
	data, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, w.base+path, bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return req, nil
}

// verifyBatch sends one verify-batch request and requires every item to
// succeed.
func (w *apiWarm) verifyBatch(ni int, qs []int, wi int) error {
	req, err := w.verifyRequest(ni, qs, wi)
	if err != nil {
		return err
	}
	status, body, err := w.do(req)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	var br httpapi.VerifyBatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		return err
	}
	for _, it := range br.Results {
		if it.Error != "" {
			return errors.New(it.Error)
		}
	}
	return nil
}

func (w *apiWarm) do(req *http.Request) (int, []byte, error) {
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// verify replays every satisfied witness on the network it came from.
func (w *apiWarm) verify(ops []opResult) error {
	qs := make([][]*query.Query, len(w.nets))
	rps := make([]*replayer, len(w.nets))
	for ni, n := range w.nets {
		rps[ni] = newReplayer(n.net)
		for _, t := range n.queries {
			q, err := query.Parse(t, n.net)
			if err != nil {
				return err
			}
			qs[ni] = append(qs[ni], q)
		}
	}
	for i, wits := range w.witnesses {
		for _, wt := range wits {
			if err := rps[wt.net].check(wt.trace, wt.failed, qs[wt.net][wt.query]); err != nil {
				ops[i].Outcomes[wt.out].Err = err.Error()
			}
		}
	}
	return nil
}

// layers pairs each traced request with its server-side handler span and
// adds the engine's timingMs phases as the handler's children.
func (w *apiWarm) layers(p *phase, rec *recorder) map[string]float64 {
	// A handler may still be recording after its client has read the
	// response; such a request is left unpaired.
	w.mu.Lock()
	defer w.mu.Unlock()
	var handler, overhead, transport, scrape, emitted, kept []float64
	for _, c := range w.clients {
		h, ok := w.handlers[c.op]
		if !ok {
			continue
		}
		hd := h.end.Sub(h.start)
		transport = append(transport, ms(c.end.Sub(c.start)-hd))
		if c.scrape {
			scrape = append(scrape, ms(hd))
			continue
		}
		handler = append(handler, ms(hd))
		var engineMS float64
		for _, t := range c.timings {
			engineMS += t.Build + t.Over + t.Under + t.Reconstruct
		}
		overhead = append(overhead, ms(hd)-engineMS)
		if len(c.timings) == 1 {
			t := c.timings[0]
			rec.sequence(int(c.op), h.id, h.start,
				namedDur{"engine.translate", msDur(t.Build)},
				namedDur{"pds.saturate", msDur(t.Over)},
				namedDur{"engine.reconstruct", msDur(t.Reconstruct)},
				namedDur{"pds.saturate.under", msDur(t.Under)})
		} else {
			rec.add(int(c.op), h.id, "batch.verify", h.start, h.start.Add(msDur(engineMS)))
		}
		for _, s := range c.sizes {
			emitted = append(emitted, float64(s.OverRulesPre))
			kept = append(kept, float64(s.OverRules))
		}
	}
	var states []float64
	for _, n := range w.nets {
		states = append(states, pathNFAStates(n.net, n.queries)...)
	}
	return map[string]float64{
		"query.path_nfa_states":   mean(states),
		"translate.rules_emitted": mean(emitted),
		"translate.rules_kept":    mean(kept),
		"batch.busy_ratio":        ratio(floatCounterDelta(p, "batch_worker_busy_seconds_total"), apiClients*p.wall.Seconds()),
		"httpapi.handler_ms":      mean(handler),
		"httpapi.overhead_ms":     mean(overhead),
		"http.transport_ms":       mean(transport),
		"obs.scrape_ms":           mean(scrape),
	}
}

func msDur(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
