package server

import (
	"sync"

	"hippocrates/internal/crashsim"
	"hippocrates/internal/ir"
)

// artifact is everything memoizable about one program source: the
// compiled module (cloned per job; the master is never mutated) and the
// crash-verdict cache its jobs share.
type artifact struct {
	mod *ir.Module

	mu sync.Mutex
	vc *crashsim.VerdictCache
}

// verdicts returns the artifact's shared verdict cache, creating it on
// first use.
func (a *artifact) verdicts() *crashsim.VerdictCache {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.vc == nil {
		a.vc = crashsim.NewVerdictCache()
	}
	return a.vc
}

// retireVerdicts drops the shared cache IF it is still the one the caller
// was handed: a job's repair reset it after rewriting recovery-reachable
// code, so the surviving entries describe recovery code future jobs of
// this source won't run.
func (a *artifact) retireVerdicts(old *crashsim.VerdictCache) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.vc == old {
		a.vc = nil
	}
}
