package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain compares two sets of untraced records, workload by
// workload: a verdict per end-to-end metric against the bounds in
// BENCHMARK.json, or "different host" when the fingerprints differ. It
// exits 1 when any metric regressed.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	boundsPath := fs.String("bounds", "BENCHMARK.json", "benchmark description holding the bounds")
	_ = fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [-bounds BENCHMARK.json] OLD.jsonl NEW.jsonl")
		return 2
	}
	var bf benchmarkFile
	b, err := os.ReadFile(*boundsPath)
	if err == nil {
		err = json.Unmarshal(b, &bf)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	old, err := readRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	cur, err := readRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	regressed := false
	var names []string
	for w := range old {
		if _, ok := cur[w]; ok {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	for _, w := range names {
		o, n := old[w], cur[w]
		h, ok := oneHost(append(append([]record{}, o...), n...))
		if !ok {
			fmt.Printf("%s: different host (%+v vs %+v); no verdict\n", w, o[0].Host, n[0].Host)
			continue
		}
		fmt.Printf("%s: %d old and %d new runs on %s, nproc %d, GOMAXPROCS %d, %s %s\n",
			w, len(o), len(n), h.CPU, h.NProc, h.GOMAXPROCS, h.GoVersion, h.GOARCH)
		for _, m := range bf.EndToEnd {
			ov, nv := values(o, m.Name), values(n, m.Name)
			if len(ov) < 2 || len(nv) < 2 {
				fmt.Printf("  %-18s too few runs\n", m.Name)
				continue
			}
			verdict := judge(ov, nv, m.Better == "higher", m.Bound)
			regressed = regressed || verdict == "regressed"
			fmt.Printf("  %-18s old %.4g (spread %.1f%%)  new %.4g (spread %.1f%%)  %s\n",
				m.Name, median(ov), 100*spread(ov), median(nv), 100*spread(nv), verdict)
		}
	}
	if regressed {
		return 1
	}
	return 0
}

// readRecords loads valid untraced records, accepting both bare JSON lines
// and the "record {...}" lines the benchmark prints.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	skipped := 0
	for sc.Scan() {
		line := strings.TrimPrefix(strings.TrimSpace(sc.Text()), "record ")
		var rec record
		if !strings.HasPrefix(line, "{") || json.Unmarshal([]byte(line), &rec) != nil || rec.Workload == "" {
			continue
		}
		if !rec.Valid || rec.Trace {
			skipped++
			continue
		}
		out[rec.Workload] = append(out[rec.Workload], rec)
	}
	if skipped > 0 {
		fmt.Fprintf(os.Stderr, "compare: %s: skipped %d invalid or traced records\n", path, skipped)
	}
	return out, sc.Err()
}

func oneHost(recs []record) (host, bool) {
	for _, r := range recs[1:] {
		if !r.Host.sameHost(recs[0].Host) {
			return host{}, false
		}
	}
	return recs[0].Host, true
}

func values(recs []record, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// quartiles matches Python's statistics.quantiles(xs, n=4), the default
// "exclusive" method.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	q := func(i int) float64 {
		m := n + 1
		j := max(1, min(i*m/4, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// judge applies the benchmark's rule: worse than the old median by more
// than the bound is a regression; a spread wider than the bound leaves
// the metric unresolved unless every new run beats every old one.
func judge(old, cur []float64, higherBetter bool, bound float64) string {
	mo, mc := median(old), median(cur)
	worse := (mc - mo) / mo
	if higherBetter {
		worse = -worse
	}
	allBetter := true
	for _, o := range old {
		for _, c := range cur {
			if (higherBetter && c <= o) || (!higherBetter && c >= o) {
				allBetter = false
			}
		}
	}
	switch {
	case allBetter:
		return "improved (every run)"
	case worse > bound:
		return "regressed"
	case spread(old) > bound || spread(cur) > bound:
		return "unresolved (spread wider than the bound)"
	case -worse > spread(old):
		return "improved"
	}
	return "within bound"
}
