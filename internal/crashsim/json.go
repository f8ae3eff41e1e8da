package crashsim

// ReportDoc is the deterministic JSON encoding of a Report, served by
// hippocratesd and pinned by the golden-file tests in internal/cli.
// Everything outside Stats is a pure function of (module, Options):
// point selection, schedule enumeration, and verdicts are deterministic
// whatever the worker count, so two runs of the same request marshal to
// identical bytes. Stats is the one concurrency-sensitive corner — cache
// and image accounting depends on how parallel crash points interleave
// their verdict-cache lookups — which is why it is quarantined in its own
// sub-object that identity comparisons (the server soak test) zero out.
type ReportDoc struct {
	Passed          bool         `json:"passed"`
	TotalEvents     int          `json:"total_events"`
	Points          int          `json:"points"`
	PrunedPoints    int          `json:"pruned_points"`
	PointEvents     []int        `json:"point_events"`
	Schedules       int          `json:"schedules"`
	PrunedSchedules int64        `json:"pruned_schedules"`
	InvariantEntry  string       `json:"invariant_entry,omitempty"`
	RecoveryEntry   string       `json:"recovery_entry,omitempty"`
	DedupEnabled    bool         `json:"dedup"`
	Failures        []FailureDoc `json:"failures"`
	Stats           StatsDoc     `json:"stats"`
}

// FailureDoc is one failed crash schedule in API form.
type FailureDoc struct {
	Event     int    `json:"event"`
	Kind      string `json:"kind"`
	Completed int    `json:"completed"`
	Cuts      []int  `json:"cuts"`
	Entry     string `json:"entry"`
	// Error is the first line of the recovery error ("" when the entry
	// returned Ret instead of erroring).
	Error string `json:"error,omitempty"`
	Ret   uint64 `json:"ret"`
}

// StatsDoc is the run's cache/COW accounting. Deterministic for a
// sequential run (Workers=1); under a parallel pool racing lookups can
// shift hits/misses and built counts without changing any verdict.
type StatsDoc struct {
	ImagesBuilt      int   `json:"images_built"`
	DedupedSchedules int   `json:"deduped_schedules"`
	CacheHits        int64 `json:"cache_hits"`
	CacheMisses      int64 `json:"cache_misses"`
	PagesShared      int64 `json:"pages_shared"`
	PagesCopied      int64 `json:"pages_copied"`
}

// Doc converts the report to its API encoding. Slices come out non-nil so
// the JSON always carries [] rather than null.
func (r *Report) Doc() *ReportDoc {
	if r == nil {
		return nil
	}
	d := &ReportDoc{
		Passed:          r.Passed(),
		TotalEvents:     r.TotalEvents,
		Points:          r.Points,
		PrunedPoints:    r.PrunedPoints,
		PointEvents:     append([]int{}, r.PointEvents...),
		Schedules:       r.Schedules,
		PrunedSchedules: r.PrunedSchedules,
		InvariantEntry:  r.InvariantEntry,
		RecoveryEntry:   r.RecoveryEntry,
		DedupEnabled:    r.DedupEnabled,
		Failures:        make([]FailureDoc, 0, len(r.Failures)),
		Stats: StatsDoc{
			ImagesBuilt:      r.ImagesBuilt,
			DedupedSchedules: r.DedupedSchedules,
			CacheHits:        r.CacheHits,
			CacheMisses:      r.CacheMisses,
			PagesShared:      r.PagesShared,
			PagesCopied:      r.PagesCopied,
		},
	}
	for _, f := range r.Failures {
		fd := FailureDoc{
			Event:     f.Event,
			Kind:      f.Kind.String(),
			Completed: f.Completed,
			Cuts:      append([]int{}, f.Cuts...),
			Entry:     f.Entry,
			Ret:       f.Ret,
		}
		if f.Err != nil {
			fd.Error = FirstLine(f.Err.Error())
		}
		d.Failures = append(d.Failures, fd)
	}
	return d
}
