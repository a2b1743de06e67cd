package core

import (
	"mimicnet/internal/cluster"
)

// Composed names the Engine built from ComposedRoles: one real
// (observable) cluster plus N−1 Mimic clusters and a proportional number
// of Core switches (paper §7.1). The alias is pinned by the repo's
// benchmark — bench/ declares a *core.Composed and may not change in a
// product PR — and has no other user.
type Composed = Engine

// Compose builds the large-scale approximate simulation. cfg.Topo.Clusters
// sets N; all other parameters should match the small-scale run that
// trained the models ("Aside from the number of clusters, all other
// parameters are kept constant", §7.1).
func Compose(cfg cluster.Config, models *MimicModels) (*Engine, error) {
	n := cfg.Topo.Clusters
	if n < 0 {
		n = 0 // invalid; NewEngine reports the real error
	}
	return NewEngine(cfg, ComposedRoles(n), models)
}
