package server

import (
	"sync"

	"hippocrates/internal/crashsim"
	"hippocrates/internal/ir"
)

// artifact is everything memoizable about one program source: the
// compiled master module and the crash-verdict cache its jobs share.
// The master is kept only from the source's second job on — the first
// job repairs the module it compiled, since most sources are never
// submitted again — and no job mutates it: each later job repairs a
// private clone. The verdict cache lives as long as the artifact: its
// keys cover the recovery code and step limit each verdict was reached
// under, so no job's repair or budget can make an entry stale.
type artifact struct {
	mu  sync.Mutex
	mod *ir.Module
	vc  *crashsim.VerdictCache
}

// master returns the kept compiled module, or nil before the second use.
func (a *artifact) master() *ir.Module {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.mod
}

// keep makes mod the master unless one is kept already, and returns the
// kept master.
func (a *artifact) keep(mod *ir.Module) *ir.Module {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.mod == nil {
		a.mod = mod
	}
	return a.mod
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
