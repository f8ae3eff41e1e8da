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
//
// A key is booted at most once at a time: the first lookup that misses
// claims it, and lookups of a claimed key wait for the claimer's verdict
// and count as hits. So however the work is spread over workers, each key
// misses once and is booted once, unless its boot fails with an error:
// then nothing is stored, and the next waiter claims the key and boots it
// itself.
type VerdictCache struct {
	mu sync.Mutex
	m  map[verdictKey]cachedVerdict
	// booting holds the claimed keys; ended wakes the lookups waiting on
	// them whenever a claim ends.
	booting map[verdictKey]bool
	ended   sync.Cond
	hits    int64
	misses  int64
}

// NewVerdictCache returns an empty cache.
func NewVerdictCache() *VerdictCache {
	c := &VerdictCache{m: make(map[verdictKey]cachedVerdict), booting: make(map[verdictKey]bool)}
	c.ended.L = &c.mu
	return c
}

// verdict returns k's verdict, and whether the lookup hit: a cached
// verdict, or one another lookup booted while this one waited. On a miss
// it claims k and boots it with boot, storing the verdict unless boot
// fails; the claim ends either way, a panic in boot included.
func (c *VerdictCache) verdict(k verdictKey, boot func() (cachedVerdict, error)) (cachedVerdict, bool, error) {
	c.mu.Lock()
	for {
		if v, ok := c.m[k]; ok {
			c.hits++
			c.mu.Unlock()
			return v, true, nil
		}
		if !c.booting[k] {
			break
		}
		c.ended.Wait()
	}
	c.misses++
	c.booting[k] = true
	c.mu.Unlock()

	var v cachedVerdict
	ok := false
	defer func() {
		c.mu.Lock()
		if ok {
			c.m[k] = v
		}
		delete(c.booting, k)
		c.mu.Unlock()
		c.ended.Broadcast()
	}()
	v, err := boot()
	ok = err == nil
	return v, false, err
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
				if c := in.Callee(); c != nil && !seen[c] && (in.Op == ir.OpCall || in.Op == ir.OpSpawn) {
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
