package schedule

// Exported for the external tests, which import the corpus (and through
// it this package), so they cannot live in package schedule.
var (
	RunOne   = runOne
	Commutes = commutes
)
