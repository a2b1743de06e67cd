package core

import (
	"unsafe"

	"mimicnet/internal/obs"
)

// Runtime telemetry for the pipeline (obs package; DESIGN.md decision
// 10). Phase durations are one Span per phase — two clock reads per
// multi-second phase — and the inference counters are bumped once per
// flush, not per packet, so the batched engine's hot path is untouched.
var (
	obsPhaseDatagen = obs.Default().Histogram(
		`mimicnet_core_phase_seconds{phase="datagen"}`,
		"Wall time per pipeline phase (small-scale data generation, training, composed run, tuning validation).",
		obs.TimeBuckets())
	obsPhaseTrain = obs.Default().Histogram(
		`mimicnet_core_phase_seconds{phase="train"}`, "", obs.TimeBuckets())
	obsPhaseCompose = obs.Default().Histogram(
		`mimicnet_core_phase_seconds{phase="compose"}`, "", obs.TimeBuckets())

	obsInferFlushes = obs.Default().Counter("mimicnet_core_inference_flushes_total",
		"Batched inference scheduler flush events.")
	obsInferSteps = obs.Default().Counter("mimicnet_core_inference_steps_total",
		"Model steps issued through fused batched-inference calls.")

	obsCkptResumes = obs.Default().Counter("mimicnet_core_train_resumes_total",
		"Direction trainings resumed from a durable checkpoint instead of scratch.")

	obsDatasetBytes = map[Direction]*obs.Gauge{
		Ingress: obs.Default().Gauge(`mimicnet_core_dataset_bytes{dir="ingress"}`,
			"Resident bytes of the most recently built columnar dataset (feature matrix, targets, info bank, interarrivals)."),
		Egress: obs.Default().Gauge(`mimicnet_core_dataset_bytes{dir="egress"}`, ""),
	}
	obsDatasetSamples = map[Direction]*obs.Gauge{
		Ingress: obs.Default().Gauge(`mimicnet_core_dataset_samples{dir="ingress"}`,
			"Sample count of the most recently built dataset."),
		Egress: obs.Default().Gauge(`mimicnet_core_dataset_samples{dir="egress"}`, ""),
	}

	// obsMimicDrops is the model-predicted drop family, indexed by
	// [Direction][roleClass]. The engine publishes deltas after each Run,
	// keeping atomics off the inference callbacks.
	obsMimicDrops = [2][2]*obs.Counter{
		Ingress: {
			roleClassMimic: obs.Default().Counter(
				`mimicnet_core_mimic_drops_total{dir="ingress",cluster_role="mimic"}`,
				"Packets the trained models predicted dropped, by direction and the serving cluster's role (mimic = fully model-driven, hybrid = one direction under test)."),
			roleClassHybrid: obs.Default().Counter(
				`mimicnet_core_mimic_drops_total{dir="ingress",cluster_role="hybrid"}`, ""),
		},
		Egress: {
			roleClassMimic: obs.Default().Counter(
				`mimicnet_core_mimic_drops_total{dir="egress",cluster_role="mimic"}`, ""),
			roleClassHybrid: obs.Default().Counter(
				`mimicnet_core_mimic_drops_total{dir="egress",cluster_role="hybrid"}`, ""),
		},
	}
)

// roleClass values for obsMimicDrops' second index.
const (
	roleClassMimic = iota
	roleClassHybrid
)

// observeDatasetBuilt records the footprint of a freshly built dataset.
func observeDatasetBuilt(dir Direction, ds *Dataset) {
	bytes := int64(ds.Samples.Bytes()) +
		int64(len(ds.InfoBank))*int64(unsafe.Sizeof(PacketInfo{})) +
		8*int64(len(ds.Interarrivals))
	if g, ok := obsDatasetBytes[dir]; ok {
		g.Set(bytes)
	}
	if g, ok := obsDatasetSamples[dir]; ok {
		g.Set(int64(ds.Len()))
	}
}
