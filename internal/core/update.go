package core

import (
	"fmt"

	"mimicnet/internal/ml"
)

// UpdateModels incrementally retrains existing Mimic models on freshly
// generated boundary data — the "incremental model updates when models
// need retraining" direction from the paper's future work (§11,
// Appendix H). The workload, protocol, or queue configuration may have
// changed; the per-cluster topology structure must not (scalable-feature
// invariant). Feeder statistics are refitted from the new trace the way
// training fits them, and a model that replays empirical gaps keeps doing
// so; LSTM weights warm-start from the previous models.
func UpdateModels(models *MimicModels, ing, eg *Dataset, epochs int, lr float64) (*MimicModels, error) {
	if models == nil || models.Ingress == nil || models.Egress == nil {
		return nil, fmt.Errorf("core: no models to update")
	}
	if ing.Spec.Width() != models.Spec.Width() {
		return nil, fmt.Errorf("core: feature width changed (%d -> %d); retrain from scratch",
			models.Spec.Width(), ing.Spec.Width())
	}
	out := &MimicModels{Spec: models.Spec, Window: models.Window}
	var err error
	if out.Ingress, err = updateDirection(models.Ingress, ing, epochs, lr); err != nil {
		return nil, err
	}
	if out.Egress, err = updateDirection(models.Egress, eg, epochs, lr); err != nil {
		return nil, err
	}
	return out, nil
}

func updateDirection(old *DirectionModel, ds *Dataset, epochs int, lr float64) (*DirectionModel, error) {
	if ds.Len() == 0 {
		return nil, fmt.Errorf("core: %v update dataset is empty", ds.Dir)
	}
	// Clone weights via serialization so the original stays usable.
	blob, err := old.Model.MarshalJSON()
	if err != nil {
		return nil, err
	}
	model := &ml.Model{}
	if err := model.UnmarshalJSON(blob); err != nil {
		return nil, err
	}
	// Latency normalization must keep the old bounds: the cloned weights
	// were trained against them. Out-of-range new latencies clamp. Only
	// the latency column is rewritten — the feature matrix is shared.
	retargeted := make([]float64, ds.Len())
	for i := range retargeted {
		lat, dropped, _ := ds.Samples.Target(i)
		if !dropped {
			// ds normalized with its own bounds; re-normalize raw value
			// into the old model's scale.
			lat = old.Disc.Normalize(ds.Disc.Recover(lat))
		}
		retargeted[i] = lat
	}
	model.FineTune(ds.Samples.WithLatency(retargeted), epochs, lr)
	if err := model.CheckFinite(); err != nil {
		return nil, fmt.Errorf("core: %v update diverged: %w", ds.Dir, err)
	}

	dm := &DirectionModel{
		Model:            model,
		Bounds:           old.Bounds,
		Disc:             old.Disc,
		UseEmpiricalGaps: old.UseEmpiricalGaps,
	}
	fitFeeder(dm, ds, old.RatePktsPerSec)
	return dm, nil
}
