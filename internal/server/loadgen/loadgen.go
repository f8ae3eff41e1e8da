// Package loadgen builds the crashsim-able corpus replay a live daemon is
// driven with (CorpusRequests: the 15 non-redis buggy targets, each with
// full repair and crash-schedule validation). The daemon's soak and
// cache tests, hippocratesd -smoke and hippobench use it.
package loadgen

import (
	"hippocrates/internal/cli"
	"hippocrates/internal/corpus"
)

// The corpus replay's crash-validation budgets: small enough that a full
// round stays in seconds, large enough that every target exercises real
// schedule enumeration and recovery boots.
const (
	CrashPoints = 24
	CrashImages = 4
	StepLimit   = 50_000_000
)

// CorpusRequests builds one repair+crashcheck request per crashsim-able
// corpus target (seeded bugs and recovery entries; the eADR redis ports
// carry no crash-schedule evidence and are excluded — the same set the
// crash-sweep benchmark uses).
func CorpusRequests() []*cli.Request {
	var out []*cli.Request
	for _, p := range corpus.All() {
		if p.Target == "redis" || len(p.Bugs) == 0 {
			continue
		}
		out = append(out, &cli.Request{
			Program:     p.Name + ".pmc",
			Source:      p.Source(),
			Mode:        cli.ModeRepair,
			Entry:       p.Entry,
			CrashCheck:  true,
			CrashPoints: CrashPoints,
			CrashImages: CrashImages,
			StepLimit:   StepLimit,
		})
	}
	return out
}
