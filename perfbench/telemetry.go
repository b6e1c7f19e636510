package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"env2vec/internal/dataset"
	"env2vec/internal/envmeta"
	"env2vec/internal/proxy"
	"env2vec/internal/serve"
	"env2vec/internal/stats"
	"env2vec/internal/tsdb"
	"env2vec/internal/wire"
)

// The telemetry schedule: an open loop over two subscribe streams. It
// runs the nominal rate first, then an overloaded top step whose goodput
// places the ramp, then a ramp of short steps: from rampStart × goodput it
// climbs by rampCoarse until a step fails, then from the highest passing
// step by rampFine until two steps in a row fail. Capacity is the highest
// rate step that passed, so it resolves to a few percent, well inside the
// benchmark's bound. Rates are windows per second over both streams.
const (
	nominalRate  = 2000.0
	nominalShare = 0.20 // of the run's seconds spent at the nominal rate
	topRate      = 40000.0
	topShare     = 0.10
	rampShare    = 0.05 // per ramp step
	rampStart    = 0.85 // first ramp rate, as a share of the top step's goodput
	// Rate ratios between ramp steps. While no step has passed yet the
	// ramp steps down by rampCoarse, for a program whose p99 limit binds
	// below its goodput.
	rampCoarse = 1.08
	rampFine   = 1.025
	stepGap    = 50 * time.Millisecond // idle between steps, once drained
	// limitMS is the p99 limit a step must meet to count toward capacity;
	// it sits well above the p99 seen below the knee on a 2-vCPU host
	// (5–70 ms from 2k/s up to the knee), so noise below it does not
	// fail a step. Overload by a share e of the service rate builds a
	// backlog of about e·t seconds, so a 1.5 s step fails from about 7%
	// overload on.
	limitMS = 100.0
	// maxLateMS bounds how late (p99) the generator may send at the
	// nominal rate before the run is marked invalid: past it, the numbers
	// measure the scheduler, not the program. Undisturbed runs on a 2-vCPU
	// host read 1–2 ms.
	maxLateMS = 5.0
	// inlineShare of windows carry their actual inline, so they get an
	// anomaly verdict and feed the quality monitor.
	inlineShare     = 0.5
	streamOracleMod = 64 // every 64th window is checked on the tape
	// streamInflight caps a stream's windows sent but not yet answered at
	// the server's own per-stream bound (wire.ServerConfig.StreamInflight
	// defaults to 64). Past it the generator waits and the wait counts in
	// each window's latency, as backpressure would; without the cap an
	// overloaded step parks seconds of windows in socket buffers.
	streamInflight = 64
	drainTimeout   = 5 * time.Second
)

// step is one rate step of the schedule; start is nanoseconds since the
// phase began.
type step struct {
	rate  float64
	dur   time.Duration
	start int64
}

// window is one scheduled window of a stream. Times are nanoseconds since
// the phase began. The struct holds no pointers, so the collector never
// scans the schedule (hundreds of thousands of windows) while the
// generator runs.
type window struct {
	due    int64
	sent   int64 // 0 when never sent (the generator gave up)
	recv   int64 // 0 when never answered
	value  float64
	sendNS int32 // time spent in Stream.Send
	status int32
	smp    uint16 // index into the stream's pool
}

// stepWindows is one stream's windows of one step; window i has sequence
// number base+i+1.
type stepWindows struct {
	base uint64
	win  []window
}

// stream is one subscribe session and its windows, step by step.
type stream struct {
	env   envmeta.Environment
	pool  []sample
	steps []*stepWindows // written only between steps

	cur   atomic.Pointer[stepWindows] // the step being sent and answered
	got   atomic.Int64                // answers received in the current step
	slots chan struct{}               // one per window in flight, up to streamInflight
}

func runTelemetry(r *run) error {
	flags := []string{"-precision", "float32", "-gamma", "2"}
	if !r.trace {
		f, err := r.setupRepeated(flags, true)
		if err != nil {
			return err
		}
		defer f.stop()
		res, err := r.telemetryPhase(f, r.seconds, nil)
		if err != nil {
			return err
		}
		r.reportTelemetry(res)
		rss, err := f.peakRSSMB()
		if err != nil {
			return err
		}
		r.set("peak_rss_mb", rss, "MB")
		return nil
	}
	half := r.seconds / 2
	f, err := r.setupFleet(filepath.Join(r.work, "untraced"), flags, true, false)
	if err != nil {
		return err
	}
	base, err := r.telemetryPhase(f, half, nil)
	f.stop()
	if err != nil {
		return err
	}
	f, err = r.setupFleet(filepath.Join(r.work, "traced"), flags, true, true)
	if err != nil {
		return err
	}
	defer f.stop()
	tr, err := r.telemetryPhase(f, half, r.spans)
	if err != nil {
		return err
	}
	r.set("trace.overhead_ms.p50", median(tr.latencies(tr.nominal...))-median(base.latencies(base.nominal...)), "ms")
	r.set("generator_late_ms.p99", stats.Quantile(tr.lateness(tr.nominal...), 0.99), "ms")
	var send []float64
	for k := range tr.steps {
		tr.each(k, func(w *window) {
			if w.sent != 0 {
				send = append(send, float64(w.sendNS)/1e3)
			}
		})
	}
	r.set("wire.send_us.p50", median(send), "us")
	if err := r.serveLayersFromMetrics(f, tr.wall); err != nil {
		return err
	}
	st, err := f.backendStats()
	if err != nil {
		return err
	}
	r.setBackendShares(st)
	s, err := loadServed(f)
	if err != nil {
		return err
	}
	r.replayInfer(s, "f32", 8)
	r.replayInfer(s, "f32", 32)
	r.setShapeCost(s.ref.Model.Config())
	return nil
}

// telemetryResult is one phase's outcome.
type telemetryResult struct {
	begin   time.Time
	steps   []step // 0 nominal, 1 the overloaded top step, then the ramp
	nominal []int  // the steps at the nominal rate
	streams []*stream
	wall    time.Duration // from the first due window to the last answer
	goodput float64
	// censored is set when the ramp ended (out of time, or at the top
	// rate) before it found the knee; capacity is then a lower bound.
	censored bool
	closing  atomic.Bool // set before the streams are closed at the end
}

// addSpans records the phase's spans from the timestamps taken while it
// ran, so recording costs the generator nothing: one span per step, and
// for every oracle-sampled window its Send call and its round trip.
func (res *telemetryResult) addSpans(spans *spanLog) {
	if spans == nil {
		return
	}
	at := func(ns int64) time.Time { return res.begin.Add(time.Duration(ns)) }
	for k, sp := range res.steps {
		spans.add(fmt.Sprintf("step%d", k), "telemetry.step", at(sp.start), at(sp.start+int64(sp.dur)))
	}
	for i, st := range res.streams {
		for _, sw := range st.steps {
			for j, w := range sw.win {
				seq := sw.base + uint64(j) + 1
				if seq%streamOracleMod != 0 || w.recv == 0 {
					continue
				}
				id := fmt.Sprintf("s%d-%d", i, seq)
				spans.add(id, "wire.send", at(w.sent), at(w.sent+int64(w.sendNS)))
				spans.add(id, "wire.window", at(w.sent), at(w.recv))
			}
		}
	}
}

// since returns nanoseconds since the phase began.
func (res *telemetryResult) since() int64 { return int64(time.Since(res.begin)) }

// telemetryPhase runs the schedule over two streams through the proxy's
// wire front and checks a fixed sample of the answers on the tape.
func (r *run) telemetryPhase(f *fleet, dur time.Duration, spans *spanLog) (*telemetryResult, error) {
	s, err := loadServed(f)
	if err != nil {
		return nil, err
	}
	streams, err := pickStreams(s, f.backendURLs, rand.New(rand.NewSource(r.seed)))
	if err != nil {
		return nil, err
	}
	res := &telemetryResult{streams: streams}
	subs := make([]*wire.Stream, len(streams))
	for i, st := range streams {
		c, err := wire.Dial(f.proxyWire, wire.ClientConfig{})
		if err == nil {
			if subs[i], err = c.Subscribe(st.env, st.pool[0].req.ChainID); err != nil {
				c.Close()
			}
		}
		if err != nil {
			for _, sub := range subs[:i] {
				sub.Close()
			}
			return nil, fmt.Errorf("subscribe: %w", err)
		}
	}

	res.begin = time.Now()
	errc := make(chan error, 2*len(streams)+1)
	var recv sync.WaitGroup
	for i, st := range streams {
		recv.Add(1)
		go func(st *stream, sub *wire.Stream) {
			defer recv.Done()
			if err := st.receive(sub, res); err != nil {
				errc <- err
			}
		}(st, subs[i])
	}
	if err := res.runSchedule(subs, dur); err != nil {
		errc <- err
	}
	res.closing.Store(true)
	for _, sub := range subs {
		sub.Close()
	}
	recv.Wait()
	close(errc)
	var errs []error
	for err := range errc {
		errs = append(errs, err)
	}
	last := int64(0)
	for _, st := range streams {
		for _, sw := range st.steps {
			for _, w := range sw.win {
				last = max(last, w.recv)
			}
		}
	}
	res.wall = time.Duration(last)
	res.addSpans(spans)
	r.checkTelemetry(s, res, errors.Join(errs...))
	return res, nil
}

// runSchedule runs the nominal step, the top step and the ramp, then
// gives the rest of the run to the nominal rate again: the run measures
// for its full time, and the latency figures pool a sample from before
// the overload and one from after it.
func (res *telemetryResult) runSchedule(subs []*wire.Stream, total time.Duration) error {
	part := func(share float64) time.Duration { return time.Duration(float64(total) * share) }
	res.nominal = []int{0}
	if err := res.runStep(subs, nominalRate, part(nominalShare)); err != nil {
		return err
	}
	if err := res.runStep(subs, topRate, part(topShare)); err != nil {
		return err
	}
	res.goodput = res.goodputOf(1)
	if err := res.ramp(subs, total, part(rampShare)); err != nil {
		return err
	}
	if rest := total - time.Duration(res.since()) - stepGap; rest >= part(rampShare) {
		res.nominal = append(res.nominal, len(res.steps))
		return res.runStep(subs, nominalRate, rest)
	}
	return nil
}

// ramp runs steps of length dur, choosing each rate from the steps before
// it, until two steps in a row fail past a passing one or the phase's
// time is up.
func (res *telemetryResult) ramp(subs []*wire.Stream, total, dur time.Duration) error {
	rate, ratio := rampStart*res.goodput, rampCoarse
	best, fails := -1, 0
	for time.Duration(res.since())+dur <= total && rate > 0 && rate < topRate {
		if err := res.runStep(subs, rate, dur); err != nil {
			return err
		}
		k := len(res.steps) - 1
		switch ok, _ := res.passes(k); {
		case ok:
			best, fails = k, 0
			rate *= ratio
		case best < 0:
			rate /= rampCoarse
		case ratio == rampCoarse:
			ratio, fails = rampFine, 1
			rate = res.steps[best].rate * ratio
		default:
			if fails++; fails == 2 {
				return nil
			}
			rate *= ratio
		}
	}
	res.censored = true
	return nil
}

// runStep sends one step's windows on every stream at their due times and
// waits until every sent window is answered.
func (res *telemetryResult) runStep(subs []*wire.Stream, rate float64, dur time.Duration) error {
	sp := step{rate: rate, dur: dur, start: res.since() + int64(stepGap)}
	res.steps = append(res.steps, sp)
	n := int(rate / float64(len(res.streams)) * dur.Seconds())
	iv := float64(time.Second) / (rate / float64(len(res.streams)))
	for _, st := range res.streams {
		sw := &stepWindows{win: make([]window, n)}
		if k := len(st.steps); k > 0 {
			prev := st.steps[k-1]
			sw.base = prev.base + uint64(len(prev.win))
		}
		for j := range sw.win {
			sw.win[j] = window{due: sp.start + int64(float64(j)*iv), smp: uint16((sw.base + uint64(j)) % uint64(len(st.pool)))}
		}
		st.steps = append(st.steps, sw)
		st.got.Store(0)
		st.cur.Store(sw)
	}
	// A window the generator cannot send by the step's end plus the
	// latency limit would miss the limit anyway; it is left unsent and
	// the step fails.
	cutoff := sp.start + int64(dur) + int64(limitMS*float64(time.Millisecond))
	sent := make([]int64, len(res.streams))
	errs := make([]error, len(res.streams))
	var wg sync.WaitGroup
	for i, st := range res.streams {
		wg.Add(1)
		go func(i int, st *stream) {
			defer wg.Done()
			sent[i], errs[i] = st.send(subs[i], res, cutoff)
		}(i, st)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	deadline := time.Now().Add(drainTimeout)
	for i, st := range res.streams {
		for st.got.Load() < sent[i] {
			if time.Now().After(deadline) {
				return fmt.Errorf("step at %.0f/s: %d of %d windows unanswered after %v", rate, sent[i]-st.got.Load(), sent[i], drainTimeout)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// pickStreams chooses two environments of the served corpus whose ring
// homes are different backends, so each stream loads its own backend.
func pickStreams(s *served, backends []string, rng *rand.Rand) ([]*stream, error) {
	ring := proxy.New(proxy.Config{Backends: backends})
	var out []*stream
	used := map[string]bool{}
	for _, i := range rng.Perm(len(s.series)) {
		series := s.series[i]
		home := ring.Home(series.Env.String()).Name()
		if used[home] {
			continue
		}
		used[home] = true
		out = append(out, newStream(s, series, rng))
		if len(out) == 2 {
			return out, nil
		}
	}
	return nil, fmt.Errorf("no two environments home on different backends")
}

func newStream(s *served, series *dataset.Series, rng *rand.Rand) *stream {
	st := &stream{env: series.Env, slots: make(chan struct{}, streamInflight)}
	for i := 0; i < 1024; i++ {
		smp := s.draw(rng, series)
		smp.req.Build = series.Env.Build // a stream is pinned to its environment
		smp.inline = rng.Float64() < inlineShare
		st.pool = append(st.pool, smp)
	}
	return st
}

// send streams the current step's windows at their due times, waiting
// while streamInflight windows are unanswered. A window still unsent at
// cutoff is left unsent. It returns how many windows it sent.
func (st *stream) send(sub *wire.Stream, res *telemetryResult, cutoff int64) (int64, error) {
	sw := st.cur.Load()
	sent := int64(0)
	for i := range sw.win {
		w := &sw.win[i]
		if d := w.due - res.since(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		if !st.acquire(cutoff - res.since()) {
			continue
		}
		smp := &st.pool[w.smp]
		wnd := wire.Window{Seq: sw.base + uint64(i) + 1, CF: smp.req.CF, Window: smp.req.Window}
		if smp.inline {
			wnd.Actual = &smp.actual
		}
		w.sent = res.since()
		if err := sub.Send(wnd); err != nil {
			return sent, fmt.Errorf("stream send: %w", err)
		}
		w.sendNS = int32(res.since() - w.sent)
		sent++
	}
	return sent, nil
}

// receive collects predictions for the current step until the phase
// closes the stream.
func (st *stream) receive(sub *wire.Stream, res *telemetryResult) error {
	for {
		p, err := sub.Recv()
		if err != nil {
			if res.closing.Load() {
				return nil // unanswered windows stay unanswered and count as failed
			}
			return fmt.Errorf("stream recv: %w", err)
		}
		sw := st.cur.Load()
		if p.Seq <= sw.base || p.Seq > sw.base+uint64(len(sw.win)) {
			return fmt.Errorf("stream recv: seq %d outside the current step", p.Seq)
		}
		w := &sw.win[p.Seq-sw.base-1]
		w.recv, w.status, w.value = res.since(), int32(p.Status), p.Value
		st.got.Add(1)
		<-st.slots
	}
}

// acquire takes an in-flight slot, waiting at most wait for one.
func (st *stream) acquire(wait int64) bool {
	select {
	case st.slots <- struct{}{}:
		return true
	default:
	}
	if wait <= 0 {
		return false
	}
	t := time.NewTimer(time.Duration(wait))
	defer t.Stop()
	select {
	case st.slots <- struct{}{}:
		return true
	case <-t.C:
		return false
	}
}

// checkTelemetry counts every sent window that went unanswered or was
// refused as failed, checks a fixed sample of answers on the tape, and
// marks the run invalid when the generator ran late at the nominal rate.
func (r *run) checkTelemetry(s *served, res *telemetryResult, streamErr error) {
	var sent, failed int64
	var reqs []*serve.Request
	var got []float64
	for _, st := range res.streams {
		for _, sw := range st.steps {
			for i, w := range sw.win {
				if w.sent == 0 {
					continue
				}
				sent++
				if w.recv == 0 || w.status != http.StatusOK {
					failed++
					continue
				}
				if (sw.base+uint64(i)+1)%streamOracleMod == 0 {
					reqs = append(reqs, &st.pool[w.smp].req)
					got = append(got, w.value)
				}
			}
		}
	}
	bad, worst := s.oracle(reqs, got, tolFloat32)
	r.check("telemetry.tape_oracle_f32", len(reqs) > 0 && bad == 0,
		fmt.Sprintf("%d of %d sampled predictions differ from the tape beyond %g (worst %.3g)", bad, len(reqs), tolFloat32, worst))
	r.check("telemetry.no_failed_windows", failed == 0, fmt.Sprintf("%d of %d sent windows unanswered or refused", failed, sent))
	r.checkCounted("telemetry.streams_clean", streamErr == nil, fmt.Sprint(streamErr))
	r.set("oracle_samples", float64(len(reqs)), "count")
	r.attempted += sent
	r.failed += failed + int64(bad)
	if late := stats.Quantile(res.lateness(res.nominal...), 0.99); !(late <= maxLateMS) {
		r.invalid(fmt.Sprintf("generator p99 lateness %.2f ms at the nominal rate exceeds %.0f ms", late, maxLateMS))
	}
}

// each calls fn on every window of step k.
func (res *telemetryResult) each(k int, fn func(w *window)) {
	for _, st := range res.streams {
		for i := range st.steps[k].win {
			fn(&st.steps[k].win[i])
		}
	}
}

// latencies returns the window latencies (ms) of steps ks, each timed
// from when the window was due, over the answered windows.
func (res *telemetryResult) latencies(ks ...int) []float64 {
	var out []float64
	for _, k := range ks {
		res.each(k, func(w *window) {
			if w.recv != 0 && w.status == http.StatusOK {
				out = append(out, float64(w.recv-w.due)/1e6)
			}
		})
	}
	return out
}

// lateness returns how late (ms) the generator sent the windows of steps
// ks.
func (res *telemetryResult) lateness(ks ...int) []float64 {
	var out []float64
	for _, k := range ks {
		res.each(k, func(w *window) {
			if w.sent != 0 {
				out = append(out, float64(w.sent-w.due)/1e6)
			}
		})
	}
	return out
}

// passes reports whether step k kept its p99 under limitMS with no
// growing backlog: every due window sent by the step's end plus the
// limit, every one answered.
func (res *telemetryResult) passes(k int) (bool, float64) {
	due, ok := 0, 0
	res.each(k, func(w *window) {
		due++
		if w.sent != 0 && w.recv != 0 && w.status == http.StatusOK {
			ok++
		}
	})
	p99 := stats.Quantile(res.latencies(k), 0.99)
	return due > 0 && ok == due && p99 < limitMS, p99
}

// goodputOf returns the windows step k answered per second, as the median
// over twelve bins of the step (250 ms each at --seconds 30).
func (res *telemetryResult) goodputOf(k int) float64 {
	var done []time.Duration
	res.each(k, func(w *window) {
		if w.recv != 0 && w.status == http.StatusOK {
			done = append(done, time.Duration(w.recv-res.steps[k].start))
		}
	})
	return medianRate(done, res.steps[k].dur, res.steps[k].dur/12)
}

func (r *run) reportTelemetry(res *telemetryResult) {
	r.setLatency("latency", res.latencies(res.nominal...))
	r.set("generator_late_ms.p99", stats.Quantile(res.lateness(res.nominal...), 0.99), "ms")
	best := -1
	for k, sp := range res.steps {
		ok, p99 := res.passes(k)
		r.set(fmt.Sprintf("step%d.rate", k), sp.rate, "1/s")
		if lat := res.latencies(k); len(lat) > 0 {
			r.set(fmt.Sprintf("step%d.p99_ms", k), p99, "ms")
			r.set(fmt.Sprintf("step%d.p50_ms", k), median(lat), "ms")
		}
		if late := res.lateness(k); len(late) > 0 {
			r.set(fmt.Sprintf("step%d.late_p99_ms", k), stats.Quantile(late, 0.99), "ms")
			r.set(fmt.Sprintf("step%d.late_p50_ms", k), median(late), "ms")
		}
		if ok && (best < 0 || sp.rate > res.steps[best].rate) {
			best = k
		}
	}
	// Capacity: the highest step that met the limit with no backlog, as
	// the windows it answered per second from its start to its last
	// answer.
	capacity := 0.0
	if best >= 0 {
		n, last := 0, int64(0)
		res.each(best, func(w *window) {
			n++
			last = max(last, w.recv)
		})
		capacity = float64(n) / time.Duration(last-res.steps[best].start).Seconds()
	}
	r.set("steps", float64(len(res.steps)), "count")
	if res.censored {
		r.rec.Notes = append(r.rec.Notes, "the ramp ended before two steps in a row failed; capacity_rps is a lower bound")
	}
	r.set("capacity_rps", capacity, "1/s")
	r.set("goodput_rps", res.goodput, "1/s")
	// The gate reads capacity: goodput past the knee swings with how full
	// the batches run, and moves with host speed more than the knee.
	r.set("throughput_per_s", capacity, "1/s")
}

// serveLayersFromMetrics derives the serve-layer split on telemetry from
// the backends' /metrics, loaded into a tsdb and queried there: stage
// histograms merged over both backends. Forward busy time is estimated as
// the summed per-request forward time over the mean batch size, since
// /metrics records forward time per request, not per batch.
func (r *run) serveLayersFromMetrics(f *fleet, wall time.Duration) error {
	db := tsdb.New()
	now := time.Now().Unix()
	for _, u := range f.backendURLs {
		resp, err := f.http.Get(u + "/metrics")
		if err != nil {
			return err
		}
		series, err := tsdb.ParseExposition(resp.Body, now)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("parse %s/metrics: %w", u, err)
		}
		for _, s := range series {
			s.Labels["backend"] = u
			for _, smp := range s.Samples {
				if err := db.Append(s.Labels, smp.T, smp.V); err != nil {
					return err
				}
			}
		}
	}
	eng := tsdb.NewEngine(db)
	p50, err := eng.Instant(`histogram_quantile(0.5, sum by (le, stage) (env2vec_serve_stage_latency_ms_bucket))`, now)
	if err != nil {
		return err
	}
	for _, p := range p50 {
		switch stage := p.Labels["stage"]; stage {
		case "linger", "queue_wait", "forward", "encode":
			r.set("serve."+stage+"_ms.p50", p.V, "ms")
		}
	}
	total := func(expr string) (float64, error) {
		v, err := eng.Instant("sum("+expr+")", now)
		if err != nil || len(v) == 0 {
			return 0, err
		}
		return v[0].V, nil
	}
	var vals [4]float64
	for i, expr := range []string{
		"env2vec_serve_batch_size_count",
		"env2vec_serve_batch_size_sum",
		`env2vec_serve_stage_latency_ms_sum{stage="forward"}`,
		"env2vec_serve_workers",
	} {
		if vals[i], err = total(expr); err != nil {
			return err
		}
	}
	batches, rows, forwardMS, workers := vals[0], vals[1], vals[2], vals[3]
	if batches > 0 && workers > 0 && wall > 0 {
		meanBatch := rows / batches
		r.set("serve.batch_size.mean", meanBatch, "count")
		r.set("serve.forward_busy_frac", forwardMS/meanBatch/(float64(wall.Milliseconds())*workers), "ratio")
	}
	return nil
}
