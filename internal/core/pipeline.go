package core

import (
	"context"
	"time"

	"mimicnet/internal/cluster"
	"mimicnet/internal/ml"
	"mimicnet/internal/sim"
)

// PipelineConfig drives the end-to-end MimicNet workflow of Figure 3:
// small-scale data generation, model training/testing, and large-scale
// composition.
type PipelineConfig struct {
	// Base holds the user's protocol, link, and workload configuration;
	// the cluster count inside is ignored for the small-scale phase
	// (always 2) and set from TargetClusters for the final phase.
	Base cluster.Config
	// SmallScaleDuration is the simulated time of the data-generation run.
	SmallScaleDuration sim.Time
	// Train configures datasets and models.
	Train TrainConfig
	// TrainProgress, when non-nil, streams per-epoch training progress
	// for both directions (they train concurrently; the callback must be
	// concurrency-safe).
	TrainProgress TrainProgressFunc
}

// DefaultPipelineConfig returns a scaled-down pipeline around the given
// base configuration.
func DefaultPipelineConfig(base cluster.Config) PipelineConfig {
	return PipelineConfig{
		Base:               base,
		SmallScaleDuration: 200 * sim.Millisecond,
		Train:              DefaultTrainConfig(),
	}
}

// Artifacts are the pipeline's trained outputs plus the timing breakdown
// MimicNet reports in Table 2.
type Artifacts struct {
	Models *MimicModels

	IngressEval, EgressEval ml.EvalResult
	IngressSamples          int
	EgressSamples           int

	// Wall-clock phase timings (Table 2 rows).
	SmallScaleTime time.Duration
	TrainTime      time.Duration

	// SmallScale keeps the data-generation run for baseline comparisons.
	SmallScale *cluster.Simulation
}

// RunPipeline executes data generation and training (steps ❶–❸). The
// returned artifacts feed Compose (step ❺); hyper-parameter tuning
// (step ❹) lives in internal/tuning and calls back into this package.
func RunPipeline(cfg PipelineConfig) (*Artifacts, error) {
	t0 := time.Now()
	ing, eg, inst, err := GenerateTrainingData(cfg.Base, cfg.SmallScaleDuration, cfg.Train)
	if err != nil {
		return nil, err
	}
	smallTime := time.Since(t0)

	t1 := time.Now()
	models, ingEval, egEval, err := TrainModelsContext(context.Background(), ing, eg, cfg.Train, cfg.TrainProgress, nil)
	if err != nil {
		return nil, err
	}
	return &Artifacts{
		Models:         models,
		IngressEval:    ingEval,
		EgressEval:     egEval,
		IngressSamples: ing.Len(),
		EgressSamples:  eg.Len(),
		SmallScaleTime: smallTime,
		TrainTime:      time.Since(t1),
		SmallScale:     inst,
	}, nil
}

// Estimate runs the composed large-scale simulation for the given cluster
// count and duration, returning results and the wall-clock time spent —
// the "large-scale simulation" row of Table 2.
func (a *Artifacts) Estimate(base cluster.Config, clusters int, duration sim.Time) (cluster.Results, time.Duration, error) {
	cfg := base
	cfg.Topo = base.Topo.WithClusters(clusters)
	t0 := time.Now()
	comp, err := Compose(cfg, a.Models)
	if err != nil {
		return cluster.Results{}, 0, err
	}
	comp.Run(duration)
	return comp.Results(), time.Since(t0), nil
}
