package server

import (
	"embed"

	"hippocrates/internal/obs"
)

// The HTTP API's JSON output contract. `make server-smoke` round-trips a
// corpus program through a live daemon and validates both the response
// body and the flight recorder against these schemas, so a change to
// either shape must update them in the same commit. /metrics is
// Prometheus text, which obs.LintProm checks instead.
//
//go:embed schema/response.schema.json schema/flightrecorder.schema.json
var schemaFS embed.FS

// ResponseSchema returns the checked-in schema for the repair response.
func ResponseSchema() []byte { return mustSchema("schema/response.schema.json") }

// FlightRecorderSchema returns the checked-in schema for
// GET /api/v1/debug/flightrecorder.
func FlightRecorderSchema() []byte { return mustSchema("schema/flightrecorder.schema.json") }

func mustSchema(name string) []byte {
	b, err := schemaFS.ReadFile(name)
	if err != nil {
		panic("server: embedded schema missing: " + err.Error())
	}
	return b
}

// ValidateResponse checks a response document against the schema using
// the obs package's embedded zero-dependency validator.
func ValidateResponse(doc []byte) error { return obs.ValidateJSON(ResponseSchema(), doc) }

// ValidateFlightRecorder checks a flight-recorder document against the
// schema.
func ValidateFlightRecorder(doc []byte) error {
	return obs.ValidateJSON(FlightRecorderSchema(), doc)
}
