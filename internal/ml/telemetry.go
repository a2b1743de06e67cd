package ml

import (
	"mimicnet/internal/obs"
)

// Runtime telemetry for the batched engine (obs package; DESIGN.md
// decision 10). Everything on the GEMM hot path is a single atomic add
// per *Pool.Range call* (not per element, row, item or chunk), the
// batch-size histogram observes once per fused step, and the pool queue
// depth is a scrape-time callback with zero steady-state cost.
var (
	obsPoolSubmits = obs.Default().Counter("mimicnet_ml_pool_submits_total",
		"Chunks handed to pool workers (excludes the chunk the caller executes itself).")
	obsPoolDispatches = obs.Default().Counter("mimicnet_ml_pool_dispatches_total",
		"Pool.Range calls that fanned out: at least two chunks of one dispatch floor of work each.")
	obsPoolInline = obs.Default().Counter("mimicnet_ml_pool_inline_total",
		"Pool.Range calls executed wholly on the caller (work below two dispatch floors, or one worker).")
	obsBatchSize = obs.Default().Histogram("mimicnet_ml_batch_size",
		"Lanes per fused StepLanes inference step.",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256})
	obsTrainEpochs = obs.Default().Counter("mimicnet_ml_train_epochs_total",
		"Training epochs completed across all fits.")
	obsTrainBatches = obs.Default().Counter("mimicnet_ml_train_batches_total",
		"Optimizer steps (minibatches) applied across all fits.")
	obsTrainSamples = obs.Default().Counter("mimicnet_ml_train_samples_total",
		"Training samples consumed across all fits (per epoch).")
)

// registerPoolGauges exposes the shared pool's live occupancy. Called
// once from SharedPool; scrape-time only.
func registerPoolGauges(p *Pool) {
	obs.Default().GaugeFunc("mimicnet_ml_pool_queue_depth",
		"Tasks queued in the shared GEMM pool awaiting a worker.",
		func() float64 { return float64(len(p.tasks)) })
	obs.Default().GaugeFunc("mimicnet_ml_pool_workers",
		"Worker goroutines in the shared GEMM pool.",
		func() float64 { return float64(p.Workers()) })
}
