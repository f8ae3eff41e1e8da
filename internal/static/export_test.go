package static

import "hippocrates/internal/ir"

// SummaryHashes analyzes mod from entry against a fresh summary store and
// returns every summarized function's summary content hash by name, the
// hashes callers chain into their store keys.
func SummaryHashes(mod *ir.Module, entry string) map[string]string {
	az := newAnalyzer(mod, mod.Func(entry), NewStore(0))
	az.run()
	out := make(map[string]string, len(az.sumHash))
	for fn, h := range az.sumHash {
		out[fn.Name] = h
	}
	return out
}
