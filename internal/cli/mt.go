package cli

import (
	"hippocrates/internal/core"
	"hippocrates/internal/crashsim"
	"hippocrates/internal/ir"
	"hippocrates/internal/schedule"
)

// ScheduleDoc summarizes the interleaving exploration of a Threads run
// in API form. Everything outside Stats is a deterministic function of
// the request: the search is sequential and the partial-order reduction
// canonical, so the explored set, the buggy schedule id, and the
// truncation flag reproduce byte-for-byte. Stats mirrors the crash
// report's quarantine convention — accounting lives in its own
// sub-object that identity comparisons (the server soak test) zero out.
type ScheduleDoc struct {
	// Threads is the maximum thread count any explored run reached.
	Threads int `json:"threads"`
	// BuggySchedule is the replayable id of the first interleaving the
	// detector rejected before repair ("" when the program was clean
	// under every explored schedule).
	BuggySchedule string `json:"buggy_schedule,omitempty"`
	// Truncated reports that MaxSchedules cut the search off with
	// unexplored interleavings remaining.
	Truncated bool `json:"truncated,omitempty"`
	// Stats is the exploration accounting.
	Stats ScheduleStatsDoc `json:"stats"`
}

// ScheduleStatsDoc is the exploration's accounting sub-object.
type ScheduleStatsDoc struct {
	// SchedulesExplored / SchedulesPruned count executed interleavings
	// and alternatives skipped by partial-order reduction (of the final
	// exploration: post-repair in repair mode).
	SchedulesExplored int `json:"schedules_explored"`
	SchedulesPruned   int `json:"schedules_pruned"`
	// CrashPoints is the total crash-point count swept across all
	// schedules (0 when no crash validation ran).
	CrashPoints int `json:"crash_points,omitempty"`
}

// ScheduleCrashDoc is one interleaving's crash sweep in API form.
type ScheduleCrashDoc struct {
	// Schedule is the interleaving's replayable id.
	Schedule string `json:"schedule"`
	// Report is the crash-validation report for the workload run under
	// that interleaving.
	Report *crashsim.ReportDoc `json:"report"`
}

// scheduleDoc renders an exploration summary; buggy is the pre-repair
// search whose first rejected interleaving names the showcase schedule.
func scheduleDoc(final, buggy *schedule.Result, crashPoints int) *ScheduleDoc {
	d := &ScheduleDoc{
		Truncated: final.Truncated,
		Stats: ScheduleStatsDoc{
			SchedulesExplored: final.Explored,
			SchedulesPruned:   final.Pruned,
			CrashPoints:       crashPoints,
		},
	}
	for _, r := range final.Runs {
		if r.Threads > d.Threads {
			d.Threads = r.Threads
		}
	}
	if bad := buggy.FirstBuggy(); bad != nil {
		d.BuggySchedule = bad.ID
	}
	return d
}

// scheduleCrashDocs renders per-interleaving crash sweeps for the wire and
// reports whether every sweep passed.
func scheduleCrashDocs(crash []core.ScheduleCrash) (docs []ScheduleCrashDoc, passed bool) {
	passed = true
	for _, c := range crash {
		docs = append(docs, ScheduleCrashDoc{Schedule: c.ID, Report: c.Report.Doc()})
		passed = passed && c.Report.Passed()
	}
	return docs, passed
}

// runRepairMT is repair mode under Threads: explore, repair the union
// verdict, re-explore, and crash-sweep every explored interleaving.
func runRepairMT(q *Request, mod *ir.Module, opts core.Options, resp *Response) error {
	res, err := core.RunAndRepairMT(mod, q.Entry, opts, q.Args...)
	if err != nil {
		return err
	}
	resp.MT = res
	resp.BugsBefore = len(res.Before.Reports)
	resp.SitesBefore = res.Before.UniqueSites()
	resp.BugsAfter = len(res.After.Reports)
	for _, r := range res.Before.Reports {
		resp.Reports = append(resp.Reports, r.String())
	}
	resp.Fixed = res.Fixed()
	if res.Fix != nil {
		fillFixResult(resp, res.Fix)
		resp.RepairedIR = ir.Print(mod)
	}
	resp.Schedules = scheduleDoc(res.FinalExploration(), res.Exploration, res.CrashPoints)
	resp.CrashBySchedule, _ = scheduleCrashDocs(res.Crash)
	return nil
}

// runCheckMT is check mode under Threads: explore and report the union
// verdict — the one the MT repair pipeline would repair — without
// mutating the module.
func runCheckMT(q *Request, mod *ir.Module, opts core.Options, resp *Response) error {
	ex, err := core.ExploreModule(mod, q.Entry, opts, q.Args...)
	if err != nil {
		return err
	}
	resp.Exploration = ex
	union := core.UnionCheck(ex)
	for _, r := range union.Reports {
		resp.Reports = append(resp.Reports, r.String())
	}
	resp.BugsBefore = len(union.Reports)
	resp.SitesBefore = union.UniqueSites()
	resp.Fixed = ex.AllClean()
	resp.Schedules = scheduleDoc(ex, ex, 0)
	return nil
}

// runCrashMT is crash mode under Threads: crash-sweep the program as
// given under every explored interleaving.
func runCrashMT(q *Request, mod *ir.Module, opts core.Options, resp *Response) error {
	ex, err := core.ExploreModule(mod, q.Entry, opts, q.Args...)
	if err != nil {
		return err
	}
	resp.Exploration = ex
	crash, points, err := core.CrashSweep(mod, ex, q.Entry, opts, q.Args...)
	if err != nil {
		return err
	}
	resp.CrashBySchedule, resp.Fixed = scheduleCrashDocs(crash)
	resp.Schedules = scheduleDoc(ex, ex, points)
	return nil
}
