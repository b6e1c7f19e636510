package main

import (
	"fmt"
	"math"
	"math/rand"

	"env2vec/internal/dataset"
	"env2vec/internal/envmeta"
	"env2vec/internal/nn"
	"env2vec/internal/serve"
	"env2vec/internal/tensor"
)

// Tolerances of the tape oracle, relative to max(1, |tape|), as in
// docs/performance.md: the float64 path is bit-identical to the tape up to
// round-off, the float32 path is contracted to 1e-4.
const (
	tolFloat64 = 1e-12
	tolFloat32 = 1e-4
	// unseenShare of requests carry a build no training run saw, so they
	// take the <unk> embedding fallback.
	unseenShare = 0.10
)

// sample is one prepared request and the ground truth that goes with it.
type sample struct {
	req     serve.Request
	actual  float64
	observe bool // interactive: follow the prediction with POST /observe
	inline  bool // telemetry: the window carries its actual inline
}

// served is the corpus and snapshot the fleet serves, loaded into this
// process to shape requests and to hold the answers to the tape.
type served struct {
	series []*dataset.Series
	ref    *serve.Bundle // float64, used only through PredictTape
}

func loadServed(f *fleet) (*served, error) {
	ds, err := dataset.LoadDir(f.dataDir)
	if err != nil {
		return nil, err
	}
	snap, err := nn.LoadSnapshotFile(f.snap)
	if err != nil {
		return nil, err
	}
	b, err := serve.BundleFromSnapshot("env2vec", 0, snap)
	if err != nil {
		return nil, err
	}
	return &served{series: ds.Series, ref: b}, nil
}

// draw makes one request from a random series and timestep; unseen
// requests get a build name outside the trained vocabulary.
func (s *served) draw(rng *rand.Rand, series *dataset.Series) sample {
	w := s.ref.Model.Config().Window
	if series == nil {
		series = s.series[rng.Intn(len(s.series))]
	}
	t := w + rng.Intn(series.Len()-w)
	req := serve.Request{
		CF:      append([]float64(nil), series.CF.Row(t)...),
		Window:  append([]float64(nil), series.RU[t-w:t]...),
		Testbed: series.Env.Testbed, SUT: series.Env.SUT,
		Testcase: series.Env.Testcase, Build: series.Env.Build,
		ChainID: series.ChainID,
	}
	if rng.Float64() < unseenShare {
		req.Build = fmt.Sprintf("U%03d", rng.Intn(1000))
	}
	return sample{req: req, actual: series.RU[t]}
}

// tape returns the reference predictions for reqs: the same preprocessing
// the serving bundle applies, then the training tape's forward pass.
func (s *served) tape(reqs []*serve.Request) []float64 {
	b := s.ref
	cfg := b.Model.Config()
	n := len(reqs)
	batch := &nn.Batch{
		X:      tensor.New(n, cfg.In),
		Window: tensor.New(n, cfg.Window),
		EnvIDs: make([][]int, envmeta.NumFeatures),
	}
	for k := range batch.EnvIDs {
		batch.EnvIDs[k] = make([]int, n)
	}
	for i, r := range reqs {
		copy(batch.X.Row(i), r.CF)
		copy(batch.Window.Row(i), r.Window)
		ids := b.Schema.Encode(envmeta.Environment{Testbed: r.Testbed, SUT: r.SUT, Testcase: r.Testcase, Build: r.Build})
		for k := range batch.EnvIDs {
			batch.EnvIDs[k][i] = ids[k]
		}
	}
	if b.Std != nil {
		b.Std.Apply(batch.X)
	}
	b.YScale.ScaleInPlace(batch)
	out := b.Model.PredictTape(batch)
	b.YScale.UnscaleInPlace(out)
	return out
}

// oracle compares served predictions with the tape; it returns how many
// of them disagree beyond tol and the worst relative error.
func (s *served) oracle(reqs []*serve.Request, got []float64, tol float64) (bad int, worst float64) {
	want := s.tape(reqs)
	for i := range want {
		rel := math.Abs(got[i]-want[i]) / math.Max(1, math.Abs(want[i]))
		if math.IsNaN(rel) || rel > tol {
			bad++
		}
		if rel > worst || math.IsNaN(rel) {
			worst = rel
		}
	}
	return bad, worst
}
