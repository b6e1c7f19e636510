package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMetricListsMatchBenchmarkJSON keeps the metric lists, workloads and
// bounds in BENCHMARK.json in step with what the benchmark prints.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end[%d] = %+v, benchmark prints %+v", i, m, endToEnd[i])
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %+v, benchmark prints %+v", i, m, perLayer[i])
		}
	}
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok || len(w.Why) > 200 {
			t.Errorf("workload %q unknown or its why is longer than 200 characters", w.Name)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1})
	if q1 != 0.5 || q3 != 3.5 {
		t.Fatalf("quartiles of two = %v, %v; Python gives 0.5, 3.5", q1, q3)
	}
}

// buildAll builds the daemons and the benchmark into a temporary
// directory; extra flags (such as -cover) apply to the benchmark only.
func buildAll(t *testing.T, extra ...string) string {
	t.Helper()
	bin := t.TempDir()
	for _, args := range [][]string{
		{"build", "-o", bin + "/", "env2vec/cmd/env2vec", "env2vec/cmd/e2vserve", "env2vec/cmd/e2vproxy"},
		append(append([]string{"build"}, extra...), "-o", filepath.Join(bin, "perfbench"), "."),
	} {
		if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
			t.Fatalf("go %v: %v\n%s", args, err, out)
		}
	}
	return bin
}

// runBench runs one short workload and returns its record and result.
func runBench(t *testing.T, bin, work, workload, trace string, env ...string) (record, result) {
	t.Helper()
	cmd := exec.Command(filepath.Join(bin, "perfbench"), "-workload", workload, "-seed", "3",
		"-seconds", "1", "-trace", trace, "-bin", bin, "-work", work)
	cmd.Env = append(os.Environ(), env...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s trace=%s: %v\n%s", workload, trace, err, stderr.String())
	}
	var lines []string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) < 2 || !strings.HasPrefix(lines[len(lines)-2], "record ") {
		t.Fatalf("%s: want a record line then the result line, got:\n%s", workload, out)
	}
	var rec record
	var res result
	if err := json.Unmarshal([]byte(strings.TrimPrefix(lines[len(lines)-2], "record ")), &rec); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("result line: %v", err)
	}
	return rec, res
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that each prints every metric of its list with the right unit, that the
// correctness checks ran and passed, and that nothing failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the daemons and trains models")
	}
	bin := buildAll(t)
	work := t.TempDir()
	for name := range workloads {
		for _, trace := range []string{"0", "1"} {
			rec, res := runBench(t, bin, work, name, trace)
			want := endToEnd
			if trace == "1" {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
					t.Errorf("%s trace=%s: metric %s = %+v, want unit %s", name, trace, m.name, got, m.unit)
				}
			}
			if trace == "0" {
				for _, m := range endToEnd {
					if res.Metrics[m.name].Value <= 0 {
						t.Errorf("%s: end-to-end %s = %v, want > 0", name, m.name, res.Metrics[m.name].Value)
					}
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(rec.Checks) == 0 {
				t.Errorf("%s trace=%s: correct=%v failed=%d attempted=%d checks=%v errors=%v",
					name, trace, res.Correct, res.Failed, res.Attempted, rec.Checks, rec.Errors)
			}
			if rec.Host.CPU == "" || rec.Host.GOMAXPROCS == 0 || rec.Host.GoVersion == "" {
				t.Errorf("%s: incomplete host fingerprint %+v", name, rec.Host)
			}
		}
	}
}

// TestRetrainRunsNoServingCode runs retrain under coverage of the serve,
// wire and proxy packages and requires that none of their statements ran.
func TestRetrainRunsNoServingCode(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	pkgs := []string{"env2vec/internal/serve", "env2vec/internal/wire", "env2vec/internal/proxy"}
	// The main package must be instrumented too, or the binary writes no
	// coverage data at all.
	bin := buildAll(t, "-cover", "-coverpkg=env2vec/perfbench,"+strings.Join(pkgs, ","))
	cover := t.TempDir()
	runBench(t, bin, t.TempDir(), "retrain", "0", "GOCOVERDIR="+cover)
	out, err := exec.Command("go", "tool", "covdata", "percent", "-i", cover).CombinedOutput()
	if err != nil {
		t.Fatalf("covdata: %v\n%s", err, out)
	}
	for _, p := range pkgs {
		ran := true
		for _, line := range strings.Split(string(out), "\n") {
			if f := strings.Fields(line); len(f) >= 3 && f[0] == p && f[2] == "0.0%" {
				ran = false
			}
		}
		if ran {
			t.Errorf("retrain ran %s code, or coverage is missing:\n%s", p, out)
		}
	}
}
