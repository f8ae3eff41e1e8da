package crashsim

import (
	"encoding/binary"
	"hash/fnv"
	"sync"

	"hippocrates/internal/interp"
	"hippocrates/internal/ir"
)

// verdictKey identifies one recovery outcome by everything that decides
// it: the post-crash image content (pmem.CrashState.HashCuts), the code
// and budget the boot ran under (ctx, see recoveryContext), the entry
// that ran, and the completed-checkpoint argument it was given (-1 for
// no-argument entries). The crash point and cut vector are deliberately
// absent — different schedules (even at different crash points) that
// collapse to the same bytes share one verdict.
type verdictKey struct {
	image uint64
	ctx   uint64
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

// VerdictCache memoizes recovery verdicts. The interpreter is
// deterministic and a key holds everything a boot's outcome depends on —
// image bytes, the recovery-reachable code and global layout, the step
// limit, entry and argument — so a cached verdict is valid for as long as
// the cache lives, whatever module edits or budgets its callers run
// between lookups: changed recovery code hashes to new keys, and an
// undone edit finds its old verdicts again. A wall-clock deadline is the
// one limit outside the key, and a boot it cuts short is never stored.
// The cache is safe for concurrent use; share one across Validate calls
// (Options.Cache) to make incremental revalidation cheap.
type VerdictCache struct {
	mu     sync.Mutex
	m      map[verdictKey]cachedVerdict
	hits   int64
	misses int64
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

// recoveryContext hashes what besides the image and the argument decides
// a boot of entry fn: the fingerprint of every function reachable from fn
// through call and spawn edges, in walk order; the global layout (name,
// size and PM-ness in module order, which fixes every address); and the
// effective step limit. ir.FuncFingerprint memoizes on the function and
// is not safe for concurrent calls, so Validate hashes before its
// workers start.
func recoveryContext(mod *ir.Module, fn *ir.Func, stepLimit int64) uint64 {
	h := fnv.New64a()
	var buf [binary.MaxVarintLen64]byte
	num := func(v int64) { h.Write(binary.AppendVarint(buf[:0], v)) }
	str := func(s string) {
		num(int64(len(s)))
		h.Write([]byte(s))
	}
	seen := map[*ir.Func]bool{fn: true}
	for work := []*ir.Func{fn}; len(work) > 0; {
		f := work[len(work)-1]
		work = work[:len(work)-1]
		str(ir.FuncFingerprint(f))
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if c := in.Callee; c != nil && !seen[c] && (in.Op == ir.OpCall || in.Op == ir.OpSpawn) {
					seen[c] = true
					work = append(work, c)
				}
			}
		}
	}
	for _, g := range mod.Globals {
		str(g.Name)
		num(g.Elem.Size())
		if g.PM {
			num(1)
		} else {
			num(0)
		}
	}
	if stepLimit == 0 {
		stepLimit = interp.DefaultStepLimit
	}
	num(stepLimit)
	return h.Sum64()
}
