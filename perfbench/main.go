// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload against the shipped code, checks the outputs, and prints
// the workload's metrics:
//
//	perfbench -workload interactive|telemetry|retrain -seed N -seconds S -trace 0|1
//	perfbench compare OLD.jsonl NEW.jsonl
//
// The serving workloads start the real daemons (two e2vserve behind one
// e2vproxy) from the binaries in -bin; retrain runs the library workflow
// in this process. With -trace 0 the last stdout line carries the
// end-to-end metrics, with -trace 1 the per-layer metrics of a traced run.
// The line before it is the full record (every metric, host fingerprint,
// sample counts), also appended to WORK/records.jsonl for compare.
// perfbench/run.sh builds the binaries and runs this command; README.md
// in this directory documents the metrics and workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// Seeds recorded for claims: a change is measured on the baseline seed
// while it is written and must also hold on the held-out seed.
const (
	baselineSeed = 1
	heldOutSeed  = 20260
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line: the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is everything one run measured, for humans and for compare.
type record struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Seconds  int               `json:"seconds"`
	Trace    bool              `json:"trace"`
	Host     host              `json:"host"`
	Valid    bool              `json:"valid"`
	Checks   []string          `json:"checks"`
	Errors   []string          `json:"errors,omitempty"`
	Notes    []string          `json:"notes,omitempty"`
	Metrics  map[string]metric `json:"metrics"`
}

// run is the state one workload fills in.
type run struct {
	bin, work string
	seed      int64
	seconds   time.Duration
	trace     bool

	attempted, failed int64
	rec               record
	spans             *spanLog
}

func (r *run) set(name string, v float64, unit string) { r.rec.Metrics[name] = metric{v, unit} }

// check records a correctness check that ran; a failed one makes the run
// incorrect.
func (r *run) check(name string, ok bool, detail string) {
	r.rec.Checks = append(r.rec.Checks, name)
	if !ok {
		r.rec.Errors = append(r.rec.Errors, name+": "+detail)
	}
}

// checkCounted is check for an oracle whose miss is a wrong output: it
// also counts one failure, so the miss shows in error_rate.
func (r *run) checkCounted(name string, ok bool, detail string) {
	r.check(name, ok, detail)
	if !ok {
		r.failed++
	}
}

// invalid marks the measurement (not the program) as untrustworthy.
func (r *run) invalid(why string) {
	r.rec.Valid = false
	r.rec.Notes = append(r.rec.Notes, "invalid: "+why)
}

// workloads maps each workload's name to the function that runs it;
// BENCHMARK.json and README.md say why each exists.
var workloads = map[string]func(*run) error{
	"interactive": runInteractive,
	"telemetry":   runTelemetry,
	"retrain":     runRetrain,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	name := fs.String("workload", "", "interactive, telemetry or retrain")
	seed := fs.Int64("seed", baselineSeed, "seed for the corpus and the request streams")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	bin := fs.String("bin", "", "directory holding env2vec, e2vserve and e2vproxy")
	work := fs.String("work", "", "scratch directory for corpora, snapshots, logs and records")
	commit := fs.String("commit", "unknown", "commit or source hash of the code measured, for the host fingerprint")
	_ = fs.Parse(args)
	w, ok := workloads[*name]
	if !ok || *work == "" || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload interactive|telemetry|retrain, -work DIR and -seconds > 0")
		return 2
	}
	dir := filepath.Join(*work, fmt.Sprintf("run-%s-%d-%d", *name, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	r := &run{
		bin: *bin, work: dir, seed: *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		rec: record{
			Workload: *name, Seed: *seed, Seconds: int(*seconds), Trace: *trace == 1,
			Host: fingerprint(*commit), Valid: true, Metrics: map[string]metric{},
		},
	}
	if r.trace {
		r.spans = &spanLog{}
	}
	if err := w(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	r.set("error_rate", ratio(r.failed, r.attempted), "ratio")
	if r.trace {
		if err := r.spans.write(filepath.Join(*work, "traces", fmt.Sprintf("%s-%d.json", *name, *seed))); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write spans:", err)
			return 1
		}
	}
	return emit(r, *work)
}

// emit prints the record line and the contract line, and appends the
// record to WORK/records.jsonl.
func emit(r *run, work string) int {
	want := endToEnd
	if r.trace {
		want = perLayer
	}
	res := result{
		Correct:   len(r.rec.Errors) == 0 && len(r.rec.Checks) > 0,
		Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metric{},
	}
	for _, m := range want {
		v, ok := r.rec.Metrics[m.name]
		if !ok {
			v = metric{0, m.unit} // the layer does not run in this workload
		}
		res.Metrics[m.name] = v
	}
	recLine, err := json.Marshal(r.rec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if f, err := os.OpenFile(filepath.Join(work, "records.jsonl"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644); err == nil {
		_, werr := f.Write(append(recLine, '\n'))
		if cerr := f.Close(); werr == nil && cerr != nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, "perfbench: append record:", werr)
		}
	}
	for _, e := range r.rec.Errors {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	for _, n := range r.rec.Notes {
		fmt.Fprintln(os.Stderr, "perfbench:", n)
	}
	resLine, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("record %s\n%s\n", recLine, resLine)
	return 0
}

// host is the fingerprint every record carries; compare refuses a verdict
// across different hosts.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
}

func fingerprint(commit string) host {
	h := host{
		CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOARCH: runtime.GOARCH,
		Commit: commit,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// sameHost compares everything but the commit.
func (h host) sameHost(o host) bool {
	h.Commit, o.Commit = "", ""
	return h == o
}
