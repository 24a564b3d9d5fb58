// Command perfbench is the repository's benchmark. It generates a
// workload's inputs from a seed, runs the program on them in a separate
// measured process, checks every verdict and witness against a reference,
// and prints each end-to-end metric by name and unit; with --trace 1 it
// prints the per-layer metrics instead. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload paper-cold --seed 1 --seconds 15 --trace 0
//
// See perfbench/README.md for the workloads, metrics and predictions.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed of a run without --seed.
const defaultSeed = 1

// runBudget bounds a whole driver invocation; subprocesses still running
// at the deadline are killed.
const runBudget = 170 * time.Second

type flags struct {
	role     string
	workload string
	seed     int64
	seconds  float64
	trace    int
	buildDir string
	dir      string
	spanOut  string
}

func main() {
	var f flags
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&f.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&f.seed, "seed", defaultSeed, "input seed")
	fs.Float64Var(&f.seconds, "seconds", 10, "timed seconds per run")
	fs.IntVar(&f.trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&f.buildDir, "build-dir", ".bench_build", "directory for inputs, traces and results")
	fs.StringVar(&f.role, "role", "driver", "internal: driver, gen or worker")
	fs.StringVar(&f.dir, "dir", "", "internal: inputs directory")
	fs.StringVar(&f.spanOut, "span-out", "", "internal: span file of a traced worker")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	var err error
	switch f.role {
	case "driver":
		err = drive(f)
	case "gen":
		err = genRole(f)
	case "worker":
		err = workerRole(f)
	default:
		err = fmt.Errorf("unknown role %q", f.role)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if errors.Is(err, errIncorrect) {
			os.Exit(1)
		}
		os.Exit(2)
	}
}

var errIncorrect = errors.New("outputs disagree with the reference")

func inputsDir(buildDir, workload string, seed int64) string {
	return filepath.Join(buildDir, "inputs", workload, fmt.Sprintf("seed-%d", seed))
}

// storedRefsPath is the committed reference file of a workload's fixed
// inputs, relative to the repository root.
func storedRefsPath(workload string) string {
	return filepath.Join("perfbench", "refs", workload+".json")
}

// genRole writes the inputs and their references, unless this binary left
// a complete set in the directory before.
func genRole(f flags) error {
	self, err := executableDigest()
	if err != nil {
		return err
	}
	if rf, err := readRefs(filepath.Join(f.dir, fileRefs)); err == nil && rf.Generator == self {
		if d, err := digestDir(f.dir, false); err == nil && d == rf.InputsSHA256 {
			return nil
		}
	}
	if err := os.RemoveAll(f.dir); err != nil {
		return err
	}
	rf, err := prepare(f.workload, f.seed, fullSizes, f.dir, storedRefsPath(f.workload))
	if err != nil {
		return err
	}
	rf.Generator = self
	return writeRefs(filepath.Join(f.dir, fileRefs), rf)
}

// prepare generates the inputs into dir and returns their references. The
// references of the fixed inputs come from storedPath when it holds them
// for exactly these inputs. Without a storedPath they are computed now.
// With one that does not match they are computed with the dual engine, and
// a warning: the Moped-style saturator needs minutes for them, more than a
// run may take.
func prepare(workload string, seed int64, sz sizes, dir, storedPath string) (refFile, error) {
	tasks, err := generate(workload, seed, sz, dir)
	if err != nil {
		return refFile{}, fmt.Errorf("generating inputs: %w", err)
	}
	rf := refFile{Workload: workload, Seed: seed, Refs: map[string]ref{}}
	if rf.FixedSHA256, err = digestDir(dir, true); err != nil {
		return refFile{}, err
	}
	if rf.InputsSHA256, err = digestDir(dir, false); err != nil {
		return refFile{}, err
	}
	todo, dualOnly := tasks, false
	if storedPath != "" {
		st, err := readRefs(storedPath)
		if err == nil && st.FixedSHA256 == rf.FixedSHA256 {
			todo = nil
			for _, t := range tasks {
				r, ok := st.Refs[t.Key]
				switch {
				case !t.Fixed:
					todo = append(todo, t)
				case !ok:
					return refFile{}, fmt.Errorf("%s has no reference for %s", storedPath, t.Key)
				default:
					rf.Refs[t.Key] = r
					rf.Stored++
				}
			}
		} else {
			if err == nil {
				err = errors.New("fixed inputs differ")
			}
			fmt.Fprintf(os.Stderr, "perfbench: stored references unusable (%v); computing them with the dual engine\n", err)
			dualOnly = true
		}
	}
	refs, err := computeRefs(todo, dualOnly)
	if err != nil {
		return refFile{}, err
	}
	maps.Copy(rf.Refs, refs)
	return rf, sameVerdicts(tasks, rf.Refs)
}

// executableDigest hashes the running binary, which embeds the generators.
func executableDigest() (string, error) {
	path, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func workerRole(f flags) error {
	out, err := runWorker(workerConfig{
		Workload: f.workload, Seed: f.seed, Dir: f.dir,
		Seconds: f.seconds, Trace: f.trace == 1, SpanPath: f.spanOut,
	})
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runRecord is everything one run reports, written beside its inputs.
type runRecord struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Trace      bool               `json:"trace"`
	Machine    machine            `json:"machine"`
	GenS       float64            `json:"genS"`
	StoredRefs int                `json:"storedRefs"`
	RefEngines map[string]int     `json:"refEngines"`
	SetupS     []float64          `json:"setupS"`
	Tail       tail               `json:"opTail"`
	FailedFrac float64            `json:"failedRatio"`
	Failures   []string           `json:"failures,omitempty"`
	Result     result             `json:"result"`
	Layers     map[string]float64 `json:"layers,omitempty"`
	Summary    []layerSummary     `json:"layerSummary,omitempty"`
	SpanFile   string             `json:"spanFile,omitempty"`
}

type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"goVersion"`
	Commit     string `json:"commit"`
}

func drive(f flags) error {
	if !slices.Contains(workloadNames, f.workload) {
		return fmt.Errorf("--workload must be one of %s", strings.Join(workloadNames, ", "))
	}
	if f.seconds <= 0 || (f.trace != 0 && f.trace != 1) {
		return fmt.Errorf("--seconds must be positive and --trace 0 or 1")
	}
	if _, err := os.Stat(filepath.Join("perfbench", "go.mod")); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	self, err := os.Executable()
	if err != nil {
		return err
	}
	dir := inputsDir(f.buildDir, f.workload, f.seed)
	common := []string{"--workload", f.workload, "--seed", fmt.Sprint(f.seed), "--dir", dir}

	t0 := time.Now()
	if _, err := child(ctx, self, append([]string{"--role", "gen"}, common...)); err != nil {
		return fmt.Errorf("inputs: %w", err)
	}
	genS := time.Since(t0).Seconds()
	rf, err := readRefs(filepath.Join(dir, fileRefs))
	if err != nil {
		return err
	}

	args := append([]string{"--role", "worker", "--seconds", fmt.Sprint(f.seconds), "--trace", fmt.Sprint(f.trace)}, common...)
	spanFile := ""
	if f.trace == 1 {
		if err := os.MkdirAll(filepath.Join(f.buildDir, "traces"), 0o755); err != nil {
			return err
		}
		spanFile = filepath.Join(f.buildDir, "traces", fmt.Sprintf("%s-seed%d.spans.json", f.workload, f.seed))
		args = append(args, "--span-out", spanFile)
	}
	stdout, err := child(ctx, self, args)
	if err != nil {
		return fmt.Errorf("worker: %w", err)
	}
	var out workerOut
	if err := json.Unmarshal(stdout, &out); err != nil {
		return fmt.Errorf("worker output: %w", err)
	}

	rec := evaluate(f, &out, rf.Refs)
	rec.GenS = genS
	rec.StoredRefs = rf.Stored
	rec.RefEngines = map[string]int{}
	for _, r := range rf.Refs {
		rec.RefEngines[r.Engine]++
	}
	rec.Machine.GOMAXPROCS = out.GOMAXPROC
	report(os.Stdout, rec)
	if err := writeRecord(f, rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing run record:", err)
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rec.Result.Correct {
		return errIncorrect
	}
	return nil
}

// child runs this binary in another role and returns its standard output;
// its standard error passes through.
func child(ctx context.Context, self string, args []string) ([]byte, error) {
	cmd := exec.CommandContext(ctx, self, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("%s: %w", args[1], ctx.Err())
		}
		return nil, fmt.Errorf("%s: %w", args[1], err)
	}
	return stdout.Bytes(), nil
}

// evaluate judges the worker's ops and derives the reported metrics.
func evaluate(f flags, out *workerOut, refs map[string]ref) *runRecord {
	failed, decided, msgs := judge(out.Ops, refs)
	attempted := len(out.Ops)
	lat := make([]float64, attempted)
	for i, op := range out.Ops {
		lat[i] = op.MS
	}
	sort.Float64s(lat)
	rec := &runRecord{
		Workload: f.workload, Seed: f.seed, Seconds: f.seconds, Trace: f.trace == 1,
		Machine:    machineInfo(),
		SetupS:     out.SetupS,
		Tail:       tailOf(lat),
		FailedFrac: ratio(float64(failed), float64(attempted)),
		Failures:   msgs,
		Layers:     out.Layers,
		Summary:    out.Summary,
		SpanFile:   out.SpanFile,
	}
	rec.Result = result{
		Correct:   failed == 0 && attempted > 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   map[string]metric{},
	}
	if f.trace == 1 {
		for _, lm := range layerMetrics {
			rec.Result.Metrics[lm.name] = metric{out.Layers[lm.name], lm.unit}
		}
		return rec
	}
	m := rec.Result.Metrics
	m["setup_s"] = metric{median(out.SetupS), "s"}
	m["op_p50_ms"] = metric{nearestRank(lat, 0.5), "ms"}
	m["op_tail_ms"] = metric{rec.Tail.Value, "ms"}
	m["ops_per_s"] = metric{ratio(float64(attempted), out.TimedS), "1/s"}
	m["peak_rss_mb"] = metric{out.PeakRSSMB, "MB"}
	m["decided_ratio"] = metric{ratio(float64(decided), float64(attempted)), "ratio"}
	return rec
}

// report prints the human-readable run report.
func report(w io.Writer, rec *runRecord) {
	m := rec.Machine
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g trace=%v\n", rec.Workload, rec.Seed, rec.Seconds, rec.Trace)
	fmt.Fprintf(w, "machine: nproc=%d GOMAXPROCS=%d cpu=%q go=%s commit=%s\n",
		m.NProc, m.GOMAXPROCS, m.CPU, m.GoVersion, m.Commit)
	var engines []string
	for _, e := range sortedKeys(rec.RefEngines) {
		engines = append(engines, fmt.Sprintf("%s=%d", e, rec.RefEngines[e]))
	}
	fmt.Fprintf(w, "inputs+references: %.2fs; references by engine: %s; %d from %s\n",
		rec.GenS, strings.Join(engines, " "), rec.StoredRefs, storedRefsPath(rec.Workload))
	fmt.Fprintf(w, "setup runs (s): %v\n", fmtFloats(rec.SetupS))
	r := rec.Result
	fmt.Fprintf(w, "ops: attempted=%d failed=%d failed_ratio=%g\n", r.Attempted, r.Failed, rec.FailedFrac)
	t := rec.Tail
	fmt.Fprintf(w, "op_tail_ms: p%.4g of %d samples, %d beyond (rule met: %v)\n", t.Percentile, t.Samples, t.Beyond, t.RuleMet)
	for _, msg := range rec.Failures {
		fmt.Fprintf(w, "FAILED %s\n", msg)
	}
	if rec.Trace {
		fmt.Fprintf(w, "per-layer span summary (self time = duration minus child spans), spans in %s:\n", rec.SpanFile)
		fmt.Fprintf(w, "  %-22s %7s %12s %12s\n", "span", "count", "self ms", "self ms/op")
		for _, ls := range rec.Summary {
			fmt.Fprintf(w, "  %-22s %7d %12.3f %12.4f\n", ls.Name, ls.Count, ls.SelfMS, ratio(ls.SelfMS, float64(ls.Count)))
		}
		fmt.Fprintf(w, "tracing overhead: traced op p50 / untraced op p50 - 1 = %+.4f\n", rec.Layers["trace.overhead_ratio"])
		fmt.Fprintln(w, "per-layer metrics (predicted to move):")
		for _, lm := range layerMetrics {
			fmt.Fprintf(w, "  %-28s %14.6g %-6s -> %s\n", lm.name, rec.Layers[lm.name], lm.unit, lm.moves)
		}
	}
	fmt.Fprintln(w, "metrics:")
	for _, k := range sortedKeys(r.Metrics) {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}

func writeRecord(f flags, rec *runRecord) error {
	dir := filepath.Join(f.buildDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", f.workload, f.seed, f.trace)
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

func machineInfo() machine {
	m := machine{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPU: "unknown", Commit: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
	}
	return m
}
