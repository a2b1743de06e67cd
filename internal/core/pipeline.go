package core

import (
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
}

// RunPipeline executes data generation and training (steps ❶–❸). The
// returned artifacts feed Estimate (step ❺); hyper-parameter tuning
// (step ❹) lives in internal/tuning and calls back into this package.
func RunPipeline(cfg PipelineConfig) (*Artifacts, error) {
	t0 := time.Now()
	ing, eg, _, err := GenerateTrainingData(cfg.Base, cfg.SmallScaleDuration, cfg.Train)
	if err != nil {
		return nil, err
	}
	smallTime := time.Since(t0)

	t1 := time.Now()
	models, ingEval, egEval, err := TrainModels(ing, eg, cfg.Train)
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
	}, nil
}
