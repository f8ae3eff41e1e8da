package cli

import "flag"

// LimitFlags is the shared resource-limit flag every executing command
// registers: an instruction budget for the interpreter runs the command
// makes. Exceeding the budget surfaces as a typed *interp.LimitError
// instead of a hang; a negative budget is rejected by Request.Validate.
type LimitFlags struct {
	// StepLimit is the per-run instruction budget (0 keeps the
	// interpreter's 100M default).
	StepLimit int64
}

// Register installs the flag on the default FlagSet.
func (l *LimitFlags) Register() {
	flag.Int64Var(&l.StepLimit, "steplimit", 0,
		"instruction budget per interpreter run (0 = default 100M)")
}
