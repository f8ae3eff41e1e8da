package crashsim

import "sync"

// verdictKey identifies one recovery outcome by what actually determines
// it: the post-crash image content (pmem.CrashState.HashCuts), the entry
// that ran, and the completed-checkpoint argument it was given (-1 for
// no-argument entries). The crash point and cut vector are deliberately
// absent — different schedules (even at different crash points) that
// collapse to the same bytes share one verdict.
type verdictKey struct {
	image uint64
	entry string
	arg   int
}

// cachedVerdict is the outcome of one recovery boot: pass, or how the
// entry rejected the image (everything a Failure needs besides the crash
// coordinates, which come from the schedule being evaluated).
type cachedVerdict struct {
	pass bool
	ret  uint64
	err  error
}

// VerdictCache memoizes recovery verdicts keyed by image content. The
// interpreter is deterministic, so byte-identical images running the
// same entry with the same argument always produce the same outcome:
// one boot decides every schedule that collapses to those bytes. The
// cache is safe for concurrent use; share one across Validate calls
// (Options.Cache) to make incremental revalidation cheap, and Reset it
// whenever the module's recovery-reachable code changes (old verdicts
// would then describe code that no longer exists — see
// core.RunAndRepair).
type VerdictCache struct {
	mu     sync.Mutex
	m      map[verdictKey]cachedVerdict
	hits   int64
	misses int64
	gen    int64
}

// NewVerdictCache returns an empty cache.
func NewVerdictCache() *VerdictCache {
	return &VerdictCache{m: make(map[verdictKey]cachedVerdict)}
}

func (c *VerdictCache) lookup(k verdictKey) (cachedVerdict, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[k]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return v, ok
}

func (c *VerdictCache) store(k verdictKey, v cachedVerdict) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[k] = v
}

// Stats returns the cumulative lookup hit / miss counts.
func (c *VerdictCache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Reset drops every memoized verdict but keeps the cumulative stats.
func (c *VerdictCache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m = make(map[verdictKey]cachedVerdict)
	c.gen++
}

// Generation counts how many times the cache has been Reset. A holder
// sharing the cache across jobs (the hippocratesd artifact cache) snapshots
// the generation before handing it out and discards its reference if a job
// bumped it mid-flight: a reset means some repair touched recovery-reachable
// code, so the shared entries no longer describe the cached module.
func (c *VerdictCache) Generation() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}
