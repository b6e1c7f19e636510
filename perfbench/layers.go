package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"time"

	"env2vec/internal/core"
	"env2vec/internal/envmeta"
	"env2vec/internal/nn"
	"env2vec/internal/obs"
	"env2vec/internal/proxy"
	"env2vec/internal/serve"
	"env2vec/internal/tensor"
)

// getJSON fetches url into v.
func (f *fleet) getJSON(url string, v any) error {
	resp, err := f.http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.Unmarshal(b, v)
}

// backendStats sums the backends' /statz.
type backendTotals struct {
	served, rejected []uint64
	workers          int
}

func (f *fleet) backendStats() (backendTotals, error) {
	var t backendTotals
	for _, u := range f.backendURLs {
		var st serve.Stats
		if err := f.getJSON(u+"/statz", &st); err != nil {
			return t, err
		}
		t.served = append(t.served, st.Served)
		t.rejected = append(t.rejected, st.Rejected)
		t.workers += st.Workers
	}
	return t, nil
}

// setBackendShares reports shed ratio and the busiest backend's share of
// served requests.
func (r *run) setBackendShares(t backendTotals) {
	var served, rejected, most uint64
	for i := range t.served {
		served += t.served[i]
		rejected += t.rejected[i]
		most = max(most, t.served[i])
	}
	r.set("serve.shed_ratio", ratio(int64(rejected), int64(served+rejected)), "ratio")
	r.set("proxy.backend_share.max", ratio(int64(most), int64(served)), "ratio")
}

// backendIndex maps the proxy's X-Backend name (host:port) to the
// backend's position, -1 when unknown.
func (f *fleet) backendIndex(name string) int8 {
	for i, u := range f.backendURLs {
		if strings.TrimPrefix(u, "http://") == name {
			return int8(i)
		}
	}
	return -1
}

func (f *fleet) fleetState() (proxy.FleetState, error) {
	var st proxy.FleetState
	err := f.getJSON(f.proxyURL+"/fleet", &st)
	return st, err
}

// collectTraces reads up to n stitched span trees of the traced phase from
// the proxy's /traces into the span log.
func (r *run) collectTraces(f *fleet, res *interactiveResult, n int) {
	got := 0
	for _, ex := range res.ex {
		if got == n {
			return
		}
		if !ex.measured {
			continue
		}
		var t obs.Trace
		if err := f.getJSON(f.proxyURL+"/traces/"+r.requestID(ex.i), &t); err == nil {
			r.spans.addTrace(t)
			got++
		}
	}
}

// timeCalls runs call n times after reset, timing each call and counting
// its heap allocations; reset runs outside the timing.
func timeCalls(n int, reset, call func()) (us []float64, allocsPerCall float64) {
	var before, after runtime.MemStats
	reset()
	call() // warm the arenas
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		reset()
		t0 := time.Now()
		call()
		us = append(us, float64(time.Since(t0))/float64(time.Microsecond))
	}
	runtime.ReadMemStats(&after)
	return us, float64(after.Mallocs-before.Mallocs) / float64(n)
}

// inferBatch builds an n-row batch from served requests.
func inferBatch(s *served, rng *rand.Rand, n int) *nn.Batch {
	cfg := s.ref.Model.Config()
	b := &nn.Batch{X: tensor.New(n, cfg.In), Window: tensor.New(n, cfg.Window), EnvIDs: make([][]int, envmeta.NumFeatures)}
	for k := range b.EnvIDs {
		b.EnvIDs[k] = make([]int, n)
	}
	for i := 0; i < n; i++ {
		smp := s.draw(rng, nil)
		copy(b.X.Row(i), smp.req.CF)
		copy(b.Window.Row(i), smp.req.Window)
		ids := s.ref.Schema.Encode(envmeta.Environment{Testbed: smp.req.Testbed, SUT: smp.req.SUT, Testcase: smp.req.Testcase, Build: smp.req.Build})
		for k := range b.EnvIDs {
			b.EnvIDs[k][i] = ids[k]
		}
	}
	return b
}

// replayInfer times serve.Bundle.PredictInto — the serving forward stage —
// at one precision and batch size on rows of the served corpus.
func (r *run) replayInfer(s *served, prec string, n int) {
	snapBundle := *s.ref // shares the weights; only pred32 differs
	b := &snapBundle
	p := serve.PrecisionFloat64
	if prec == "f32" {
		p = serve.PrecisionFloat32
	}
	if err := b.SetPrecision(p); err != nil {
		r.check("infer.replay", false, err.Error())
		return
	}
	tmpl := inferBatch(s, rand.New(rand.NewSource(r.seed+int64(n))), n)
	work := &nn.Batch{X: tensor.New(n, tmpl.X.Cols), Window: tensor.New(n, tmpl.Window.Cols), EnvIDs: tmpl.EnvIDs}
	out := make([]float64, n)
	start := time.Now()
	us, allocs := timeCalls(replayCalls(n), func() {
		copy(work.X.Data, tmpl.X.Data)
		copy(work.Window.Data, tmpl.Window.Data)
	}, func() { b.PredictInto(out, work) })
	r.spans.add("infer", fmt.Sprintf("infer.replay.%s.b%d", prec, n), start, time.Now())
	r.set(fmt.Sprintf("infer.forward_us.%s.b%d", prec, n), median(us), "us")
	r.maxAllocs(allocs)
}

// replayCalls keeps each replay near 100k rows, at least 200 calls.
func replayCalls(n int) int { return max(200, 100000/max(n, 1)/4) }

func (r *run) maxAllocs(a float64) {
	if cur, ok := r.rec.Metrics["infer.allocs_per_call"]; !ok || a > cur.Value {
		r.set("infer.allocs_per_call", a, "count")
	}
}

// setShapeCost reports the forward pass's multiply-adds and float64 bytes
// per row, computed from the model's shapes (not measured): the FNN
// hidden layer, window steps of the GRU (pre-gate plus recurrent GEMMs),
// the dense layer and the Hadamard head. Bytes count every input, gathered
// embedding, activation and output of a row; weights are shared by the
// batch and left out.
func (r *run) setShapeCost(cfg core.Config) {
	in, h, g, w := cfg.In, cfg.Hidden, cfg.GRUHidden, cfg.Window
	cdim := envmeta.NumFeatures * cfg.EmbedDim
	macs := in*h + w*(3*g+3*g*g) + (h+g)*cdim + cdim
	values := (in + w) + cdim + h + w*7*g + cdim + 1
	r.set("tensor.macs_per_row", float64(macs), "MAC.computed")
	r.set("tensor.bytes_per_row", float64(8*values), "B.computed")
}
