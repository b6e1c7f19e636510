package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"env2vec/internal/obs"
	"env2vec/internal/serve"
)

const (
	// interactiveClients is the closed loop's concurrency: two CI jobs,
	// each waiting for its answer before asking again.
	interactiveClients = 2
	observeShare       = 0.25
	warmup             = 300 * time.Millisecond
	poolSize           = 4096
	// oracleEvery picks the fixed sample of requests checked on the tape.
	oracleEvery = 8
)

// exchange is one closed-loop request as the client saw it. It holds no
// pointers, so the collector does not scan the growing result slices
// while the loop runs.
type exchange struct {
	i          int
	measured   bool          // started inside the timed window, after warm-up
	done       time.Duration // completion, since the end of the warm-up
	backend    int8          // index of the e2vserve that answered (the proxy's X-Backend)
	batchSize  int32
	latencyMS  float64
	encodeUS   float64
	decodeUS   float64
	observeMS  float64 // 0 when not followed by /observe
	prediction float64
	batchID    uint64
	stages     stageTimes
}

// stageTimes is the response trace block's per-stage split.
type stageTimes struct {
	QueueWaitMS float64 `json:"queue_wait_ms"`
	LingerMS    float64 `json:"linger_ms"`
	ForwardMS   float64 `json:"forward_ms"`
	EncodeMS    float64 `json:"encode_ms"`
	TotalMS     float64 `json:"total_ms"`
}

// predictReply is the part of serve.Response the client reads; the span
// list in the trace block is skipped.
type predictReply struct {
	Prediction float64 `json:"prediction"`
	BatchSize  int32   `json:"batch_size"`
	Trace      *struct {
		BatchID uint64 `json:"batch_id"`
		stageTimes
	} `json:"trace"`
}

// interactiveResult is one phase's outcome.
type interactiveResult struct {
	ex        []exchange
	dur       time.Duration // length of the timed window
	attempted int64
	failed    int64
	errs      []string
}

func runInteractive(r *run) error {
	if !r.trace {
		f, err := r.setupRepeated(nil, false)
		if err != nil {
			return err
		}
		defer f.stop()
		res, err := r.interactivePhase(f, r.seconds, nil)
		if err != nil {
			return err
		}
		r.setLatency("latency", res.latencies())
		var done []time.Duration
		for _, ex := range res.ex {
			done = append(done, ex.done)
		}
		tput := medianRate(done, res.dur, time.Second)
		r.set("throughput_rps", tput, "1/s")
		r.set("throughput_per_s", tput, "1/s")
		rss, err := f.peakRSSMB()
		if err != nil {
			return err
		}
		r.set("peak_rss_mb", rss, "MB")
		return nil
	}

	// Traced run: an untraced phase and a traced one of half the length
	// each, on fresh fleets; the difference is the tracing overhead.
	half := r.seconds / 2
	f, err := r.setupFleet(filepath.Join(r.work, "untraced"), nil, false, false)
	if err != nil {
		return err
	}
	base, err := r.interactivePhase(f, half, nil)
	f.stop()
	if err != nil {
		return err
	}
	f, err = r.setupFleet(filepath.Join(r.work, "traced"), nil, false, true)
	if err != nil {
		return err
	}
	defer f.stop()
	tr, err := r.interactivePhase(f, half, r.spans)
	if err != nil {
		return err
	}
	r.set("trace.overhead_ms.p50", median(tr.latencies())-median(base.latencies()), "ms")
	return r.interactiveLayers(f, tr)
}

// interactivePhase drives the closed loop for dur after a warm-up and
// checks a fixed sample of the answers against the tape.
func (r *run) interactivePhase(f *fleet, dur time.Duration, spans *spanLog) (*interactiveResult, error) {
	s, err := loadServed(f)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(r.seed))
	pool := make([]sample, poolSize)
	for i := range pool {
		pool[i] = s.draw(rng, nil)
		pool[i].observe = rng.Float64() < observeShare
	}
	client := &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: interactiveClients, MaxIdleConnsPerHost: interactiveClients},
	}
	defer client.CloseIdleConnections()

	res := &interactiveResult{dur: dur}
	var next atomic.Int64
	var mu sync.Mutex
	start := time.Now()
	measureFrom, end := start.Add(warmup), start.Add(warmup+dur)
	var wg sync.WaitGroup
	for c := 0; c < interactiveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []exchange
			var attempted, failed int64
			var errs []string
			for time.Now().Before(end) {
				i := int(next.Add(1) - 1)
				smp := &pool[i%len(pool)]
				ex, n, err := r.exchange(client, f, i, smp, measureFrom, spans)
				attempted += n
				if err != nil {
					failed++
					if len(errs) < 5 {
						errs = append(errs, err.Error())
					}
					continue
				}
				mine = append(mine, ex)
			}
			mu.Lock()
			res.ex = append(res.ex, mine...)
			res.attempted += attempted
			res.failed += failed
			res.errs = append(res.errs, errs...)
			mu.Unlock()
		}()
	}
	wg.Wait()

	// The tape oracle over the fixed sample of answered requests.
	var reqs []*serve.Request
	var got []float64
	for _, ex := range res.ex {
		if ex.i%oracleEvery == 0 {
			reqs = append(reqs, &pool[ex.i%len(pool)].req)
			got = append(got, ex.prediction)
		}
	}
	bad, worst := s.oracle(reqs, got, tolFloat64)
	r.check("interactive.tape_oracle_f64", len(reqs) > 0 && bad == 0,
		fmt.Sprintf("%d of %d sampled predictions differ from the tape beyond %g (worst %.3g)", bad, len(reqs), tolFloat64, worst))
	r.check("interactive.no_failed_requests", res.failed == 0, fmt.Sprintf("%d failed: %v", res.failed, res.errs))
	r.set("oracle_samples", float64(len(reqs)), "count")
	r.attempted += res.attempted
	r.failed += res.failed + int64(bad)
	return res, nil
}

// exchange sends one prediction (and its /observe, when drawn) and times
// each step. It returns the operations attempted.
func (r *run) exchange(client *http.Client, f *fleet, i int, smp *sample, measureFrom time.Time, spans *spanLog) (exchange, int64, error) {
	id := r.requestID(i)
	base := f.proxyURL
	t0 := time.Now()
	ex := exchange{i: i, measured: !t0.Before(measureFrom)}
	body, err := json.Marshal(&smp.req)
	if err != nil {
		return ex, 1, err
	}
	t1 := time.Now()
	req, err := http.NewRequest(http.MethodPost, base+"/predict", bytes.NewReader(body))
	if err != nil {
		return ex, 1, err
	}
	req.Header.Set(obs.RequestIDHeader, id)
	req.Header.Set("Content-Type", "application/json")
	raw, code, backend, err := do(client, req)
	if err != nil {
		return ex, 1, err
	}
	ex.backend = f.backendIndex(backend)
	if code != http.StatusOK {
		return ex, 1, fmt.Errorf("predict: HTTP %d: %s", code, bytes.TrimSpace(raw))
	}
	t2 := time.Now()
	var resp predictReply
	if err := json.Unmarshal(raw, &resp); err != nil {
		return ex, 1, fmt.Errorf("predict: decode: %w", err)
	}
	t3 := time.Now()
	if resp.Trace == nil {
		return ex, 1, fmt.Errorf("predict: response without a trace block")
	}
	ex.latencyMS = obs.MS(t3.Sub(t0))
	ex.done = t3.Sub(measureFrom)
	ex.encodeUS = float64(t1.Sub(t0)) / float64(time.Microsecond)
	ex.decodeUS = float64(t3.Sub(t2)) / float64(time.Microsecond)
	ex.prediction, ex.batchSize = resp.Prediction, resp.BatchSize
	ex.batchID, ex.stages = resp.Trace.BatchID, resp.Trace.stageTimes
	spans.add(id, "client.request", t0, t3)
	spans.add(id, "client.json_encode", t0, t1)
	spans.add(id, "client.json_decode", t2, t3)
	if !smp.observe {
		return ex, 1, nil
	}
	o0 := time.Now()
	ob, err := json.Marshal(serve.ObserveRequest{RequestID: id, Actual: smp.actual})
	if err != nil {
		return ex, 2, err
	}
	req, err = http.NewRequest(http.MethodPost, base+"/observe", bytes.NewReader(ob))
	if err != nil {
		return ex, 2, err
	}
	req.Header.Set("Content-Type", "application/json")
	raw, code, _, err = do(client, req)
	if err != nil {
		return ex, 2, err
	}
	if code != http.StatusOK {
		return ex, 2, fmt.Errorf("observe: HTTP %d: %s", code, bytes.TrimSpace(raw))
	}
	o1 := time.Now()
	ex.observeMS = obs.MS(o1.Sub(o0))
	spans.add(id, "client.observe", o0, o1)
	return ex, 2, nil
}

// requestID is request i's id: 16 hex digits, unique per seed.
func (r *run) requestID(i int) string { return fmt.Sprintf("%08x%08x", uint32(r.seed), uint32(i)) }

// do sends req and returns the body, the status and the proxy's
// X-Backend header.
func do(client *http.Client, req *http.Request) ([]byte, int, string, error) {
	resp, err := client.Do(req)
	if err != nil {
		return nil, 0, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, resp.Header.Get("X-Backend"), err
}

func (res *interactiveResult) latencies() []float64 {
	var out []float64
	for _, ex := range res.ex {
		if ex.measured {
			out = append(out, ex.latencyMS)
		}
	}
	return out
}

// pick gathers one field over the measured exchanges.
func (res *interactiveResult) pick(f func(exchange) (float64, bool)) []float64 {
	var out []float64
	for _, ex := range res.ex {
		if !ex.measured {
			continue
		}
		if v, ok := f(ex); ok {
			out = append(out, v)
		}
	}
	return out
}

// interactiveLayers derives the per-layer split from the traced phase:
// the trace block of every response, the client's own timings, the
// daemons' /statz and /fleet, span trees from the proxy's /traces, and a
// replay of the batch-1 float64 forward.
func (r *run) interactiveLayers(f *fleet, res *interactiveResult) error {
	field := func(get func(exchange) float64) []float64 {
		return res.pick(func(ex exchange) (float64, bool) { return get(ex), true })
	}
	r.set("serve.linger_ms.p50", median(field(func(ex exchange) float64 { return ex.stages.LingerMS })), "ms")
	r.set("serve.queue_wait_ms.p50", median(field(func(ex exchange) float64 { return ex.stages.QueueWaitMS })), "ms")
	r.set("serve.forward_ms.p50", median(field(func(ex exchange) float64 { return ex.stages.ForwardMS })), "ms")
	r.set("serve.encode_ms.p50", median(field(func(ex exchange) float64 { return ex.stages.EncodeMS })), "ms")
	r.set("serve.batch_size.mean", mean(field(func(ex exchange) float64 { return float64(ex.batchSize) })), "count")
	r.set("proxy.overhead_ms.p50", median(field(func(ex exchange) float64 { return ex.latencyMS - ex.stages.TotalMS })), "ms")
	r.set("client.json_encode_us.p50", median(field(func(ex exchange) float64 { return ex.encodeUS })), "us")
	r.set("client.json_decode_us.p50", median(field(func(ex exchange) float64 { return ex.decodeUS })), "us")
	r.set("serve.observe_ms.p50", median(res.pick(func(ex exchange) (float64, bool) { return ex.observeMS, ex.observeMS > 0 })), "ms")
	r.set("latency_p50_ms", median(res.latencies()), "ms")

	// Busy time counts each batch's forward once: requests of one batch
	// share its backend and batch id.
	fwd := map[[2]uint64]float64{}
	for _, ex := range res.ex {
		if ex.measured {
			fwd[[2]uint64{uint64(ex.backend), ex.batchID}] = ex.stages.ForwardMS
		}
	}
	st, err := f.backendStats()
	if err != nil {
		return err
	}
	busy := 0.0
	for _, ms := range fwd {
		busy += ms
	}
	r.set("serve.forward_busy_frac", busy/(res.dur.Seconds()*1000*float64(st.workers)), "ratio")
	r.setBackendShares(st)
	fl, err := f.fleetState()
	if err != nil {
		return err
	}
	requests := fl.Served + fl.Failed
	r.set("proxy.attempts_per_request", ratio(int64(requests+fl.Retries), int64(requests)), "count")

	r.collectTraces(f, res, 64)
	s, err := loadServed(f)
	if err != nil {
		return err
	}
	r.replayInfer(s, "f64", 1)
	r.setShapeCost(s.ref.Model.Config())
	return nil
}
