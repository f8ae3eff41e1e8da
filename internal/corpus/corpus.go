// Package corpus holds the evaluation targets: pmc ports of the systems
// the paper evaluates Hippocrates on (§6). Each program seeds the same
// species of durability bug the paper reproduced:
//
//   - pmdk: eleven reproduced PMDK issues over a mini-libpmem/libpmemobj
//     (Fig. 1 / Fig. 3),
//   - pclht: RECIPE's P-CLHT persistent cache-line hash table with the
//     two previously undocumented bugs,
//   - memcached: the memcached-pm slab cache core with its ten bugs,
//   - redis: the Redis-pmem key-value store core, in a hand-persisted
//     baseline build and a flush-free build (flushes removed, fences
//     kept) for the §6.3 case study.
//
// Sources are embedded .pmc files; every program compiles against the
// mini-libpmem prelude.
package corpus

import (
	"embed"
	"fmt"
	"strings"

	"hippocrates/internal/core"
	"hippocrates/internal/ir"
	"hippocrates/internal/lang"
	"hippocrates/internal/pmem"
)

//go:embed pmdk/*.pmc pclht/*.pmc memcached/*.pmc redis/*.pmc nvtree/*.pmc pmlog/*.pmc overpersist/*.pmc mt/*.pmc
var files embed.FS

// FixSpecies is the expected shape of a Hippocrates fix for a known bug
// (the "Hippocrates fix" column of Fig. 3).
type FixSpecies int

// The fix species.
const (
	SpeciesIntraFlush FixSpecies = iota
	SpeciesIntraFence
	SpeciesIntraFlushFence
	SpeciesInterproc
)

func (s FixSpecies) String() string {
	switch s {
	case SpeciesIntraFlush:
		return "intraprocedural flush (clwb)"
	case SpeciesIntraFence:
		return "intraprocedural fence"
	case SpeciesIntraFlushFence:
		return "intraprocedural flush+fence"
	case SpeciesInterproc:
		return "interprocedural flush+fence"
	}
	return fmt.Sprintf("species(%d)", int(s))
}

// Matches reports whether an applied fix has this species.
func (s FixSpecies) Matches(k core.FixKind) bool {
	switch s {
	case SpeciesIntraFlush:
		return k == core.FixIntraFlush
	case SpeciesIntraFence:
		return k == core.FixIntraFence
	case SpeciesIntraFlushFence:
		return k == core.FixIntraFlushFence
	case SpeciesInterproc:
		return k == core.FixInterproc
	}
	return false
}

// KnownBug documents one seeded bug and the paper-recorded comparison
// between the Hippocrates fix and the developer fix.
type KnownBug struct {
	// ID names the bug, e.g. "pmdk-447".
	ID string
	// Issue is the PMDK issue number (0 for non-PMDK targets).
	Issue int
	// Class is the expected detector classification.
	Class pmem.BugClass
	// Species is the fix species Hippocrates is expected to produce.
	Species FixSpecies
	// DevFix describes the developer's fix (Fig. 3).
	DevFix string
	// Comparison is the Fig. 3 qualitative verdict: "identical" or
	// "equivalent".
	Comparison string
}

// Program is one runnable corpus target.
type Program struct {
	// Name identifies the program, e.g. "pmdk-447-list-insert".
	Name string
	// Target is the evaluation system: pmdk, pclht, memcached, redis.
	Target string
	// File is the embedded source path.
	File string
	// Entry is the function the unit workload starts at.
	Entry string
	// WantRet is the expected return value of a successful run.
	WantRet uint64
	// Bugs are the seeded bugs, in report order.
	Bugs []KnownBug
	// FlushFree builds the program against the flush-free prelude
	// (pmem_flush stubbed out, fences kept — §6.3 methodology).
	FlushFree bool
}

func mustRead(path string) string {
	b, err := files.ReadFile(path)
	if err != nil {
		panic("corpus: " + err.Error())
	}
	return string(b)
}

// Prelude returns the mini-libpmem/libpmemobj source.
func Prelude() string { return mustRead("pmdk/libpmem.pmc") }

// FlushFreePrelude returns the prelude with cache-line flushing removed
// but every fence kept, exactly as §6.3 prepares Redis for Hippocrates:
// "We first remove all flushes in Redis-pmem. We leave memory fences,
// however, to preserve semantic ordering information."
func FlushFreePrelude() string {
	src := Prelude()
	stub := `void pmem_flush(byte *addr, int len) {
	// flush-free build: flushes removed, fences kept (see §6.3)
}`
	start := strings.Index(src, "void pmem_flush")
	if start < 0 {
		panic("corpus: prelude lost pmem_flush")
	}
	end := strings.Index(src[start:], "\n}")
	if end < 0 {
		panic("corpus: prelude pmem_flush unterminated")
	}
	return src[:start] + stub + src[start+end+2:]
}

// Source assembles the full compilable source of a program.
func (p *Program) Source() string {
	prelude := Prelude()
	if p.FlushFree {
		prelude = FlushFreePrelude()
	}
	return prelude + "\n" + mustRead(p.File)
}

// Compile builds the program's module.
func (p *Program) Compile() (*ir.Module, error) {
	m, err := lang.Compile(p.Name+".pmc", p.Source())
	if err != nil {
		return nil, fmt.Errorf("corpus %s: %w", p.Name, err)
	}
	return m, nil
}

// MustCompile is Compile that panics on error (the sources are tested).
func (p *Program) MustCompile() *ir.Module {
	m, err := p.Compile()
	if err != nil {
		panic(err)
	}
	return m
}

// ByName returns the named program, or nil.
func ByName(name string) *Program {
	for _, p := range All() {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// ByTarget returns the programs of one evaluation target.
func ByTarget(target string) []*Program {
	var out []*Program
	for _, p := range All() {
		if p.Target == target {
			out = append(out, p)
		}
	}
	return out
}

// PaperTargets are the evaluation targets of §6.1 whose seeded bug counts
// reproduce the paper's 23 (Redis is the §6.3 performance target;
// everything else is an extension beyond the paper's scope).
var PaperTargets = []string{"pmdk", "pclht", "memcached"}

// All returns every corpus program, paper targets first.
func All() []*Program {
	all := []*Program{}
	all = append(all, PMDKPrograms()...)
	all = append(all, PCLHTProgram())
	all = append(all, MemcachedProgram())
	all = append(all, RedisPrograms()...)
	all = append(all, ExtensionPrograms()...)
	all = append(all, OverpersistPrograms()...)
	return all
}
