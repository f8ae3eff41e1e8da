package ir

// Exported for the external tests of the parser.
var (
	OracleParseModule = oracleParseModule
	DiffModules       = diffModules
)
