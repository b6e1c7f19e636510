package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"env2vec/internal/obs"
	"env2vec/internal/stats"
)

// spec names one metric of the contract line. The lists mirror
// BENCHMARK.json; TestMetricListsMatchBenchmarkJSON keeps them in step.
type spec struct{ name, unit string }

// endToEnd is what a user of the system sees. Every workload reports each
// one; README.md gives each workload's reading of the name.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer comes from the traced run. A layer a workload does not run
// reports 0 there (retrain runs no serving code, so every serve.* is 0).
var perLayer = []spec{
	{"serve.linger_ms.p50", "ms"},
	{"serve.queue_wait_ms.p50", "ms"},
	{"serve.forward_ms.p50", "ms"},
	{"serve.encode_ms.p50", "ms"},
	{"serve.batch_size.mean", "count"},
	{"serve.forward_busy_frac", "ratio"},
	{"serve.shed_ratio", "ratio"},
	{"serve.observe_ms.p50", "ms"},
	{"proxy.overhead_ms.p50", "ms"},
	{"proxy.attempts_per_request", "count"},
	{"proxy.backend_share.max", "ratio"},
	{"wire.send_us.p50", "us"},
	{"client.json_encode_us.p50", "us"},
	{"client.json_decode_us.p50", "us"},
	{"generator_late_ms.p99", "ms"},
	{"infer.forward_us.f64.b1", "us"},
	{"infer.forward_us.f32.b8", "us"},
	{"infer.forward_us.f32.b32", "us"},
	{"infer.forward_us.f64.b80", "us"},
	{"infer.allocs_per_call", "count"},
	{"tensor.macs_per_row", "MAC.computed"},
	{"tensor.bytes_per_row", "B.computed"},
	{"train.step_ms.p50", "ms"},
	{"autodiff.forward_ms.p50", "ms"},
	{"autodiff.backward_ms.p50", "ms"},
	{"nn.adam_ms.p50", "ms"},
	{"train.alloc_bytes_per_step", "B"},
	{"train.gc_cpu_frac", "ratio"},
	{"pipeline.process_ms.p50", "ms"},
	{"trace.overhead_ms.p50", "ms"},
}

func median(xs []float64) float64 { return stats.Quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// medianRate splits [0, span) into bins of width bin and returns the
// median over the bins of events per second; at is each event's time
// since the start of the span. The median bin, unlike the overall mean,
// does not move with a brief stall of the host.
func medianRate(at []time.Duration, span, bin time.Duration) float64 {
	n := int(span / bin)
	if n < 1 {
		return math.NaN()
	}
	counts := make([]float64, n)
	for _, t := range at {
		if k := int(t / bin); t >= 0 && k < n {
			counts[k]++
		}
	}
	return median(counts) / bin.Seconds()
}

// setLatency reports a latency sample as p50 plus the sample count, and
// p99 only where at least ten samples lie beyond it.
func (r *run) setLatency(prefix string, ms []float64) {
	n := len(ms)
	r.set(prefix+"_samples", float64(n), "count")
	if n == 0 {
		return
	}
	r.set(prefix+"_p50_ms", median(ms), "ms")
	if n >= 1000 {
		r.set(prefix+"_p99_ms", stats.Quantile(ms, 0.99), "ms")
	}
}

// spanLog keeps the benchmark's own spans — one around each call it makes
// into a layer — in memory until the run ends. A nil log records nothing,
// which is how the untraced phase runs.
type spanLog struct {
	mu    sync.Mutex
	spans []obs.Span
}

// add records a span; trace groups the spans of one request or step.
func (l *spanLog) add(trace, name string, start, end time.Time) {
	if l == nil {
		return
	}
	sp := obs.NewSpan(trace, "", name, start, end)
	l.mu.Lock()
	l.spans = append(l.spans, sp)
	l.mu.Unlock()
}

// addTrace appends span trees read from a daemon's /traces.
func (l *spanLog) addTrace(t obs.Trace) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, t.Spans...)
	l.mu.Unlock()
}

// durations returns the durations (ms) of every span named name.
func (l *spanLog) durations(name string) []float64 {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, s.DurationMS)
		}
	}
	return out
}

func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	l.mu.Lock()
	b, err := json.Marshal(l.spans)
	l.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
