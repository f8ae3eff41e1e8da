package obs

import (
	"embed"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
)

// The telemetry output contract. `make metrics-smoke` runs the tools with
// -metrics/-spans and validates the emitted files against these schemas,
// so a change to the export shape must update them in the same commit.
//
//go:embed schema/metrics.schema.json schema/spans.schema.json
var schemaFS embed.FS

// MetricsSchema returns the checked-in schema for the -metrics JSON.
func MetricsSchema() []byte { return mustSchema("schema/metrics.schema.json") }

// SpansSchema returns the checked-in schema for the -spans (Chrome
// trace_event) JSON.
func SpansSchema() []byte { return mustSchema("schema/spans.schema.json") }

func mustSchema(name string) []byte {
	b, err := schemaFS.ReadFile(name)
	if err != nil {
		panic("obs: embedded schema missing: " + err.Error())
	}
	return b
}

// ValidateMetrics checks a -metrics document against the schema. No
// product path reads a -metrics document back; it stays as the schema's
// executable check, which the telemetry smoke tests run.
func ValidateMetrics(doc []byte) error { return ValidateJSON(MetricsSchema(), doc) }

// ValidateSpans checks a -spans document against the schema. Like
// ValidateMetrics, it is the schema's executable check for the tests.
func ValidateSpans(doc []byte) error { return ValidateJSON(SpansSchema(), doc) }

// ValidateJSON validates doc against schema, a JSON document using the
// subset of JSON Schema the telemetry contract needs: "type" (string,
// number, integer, boolean, object, array, null), "properties",
// "required", "items", "additionalProperties" (bool or schema), "enum",
// and "minimum". Implemented here because the repository takes no
// third-party dependencies.
func ValidateJSON(schema, doc []byte) error {
	var sch any
	if err := json.Unmarshal(schema, &sch); err != nil {
		return fmt.Errorf("obs: schema is not valid JSON: %w", err)
	}
	var d any
	if err := json.Unmarshal(doc, &d); err != nil {
		return fmt.Errorf("obs: document is not valid JSON: %w", err)
	}
	return validate(sch, d, "$")
}

func validate(schema, doc any, path string) error {
	sm, ok := schema.(map[string]any)
	if !ok {
		return fmt.Errorf("obs: schema node at %s is not an object", path)
	}

	if enum, ok := sm["enum"].([]any); ok {
		for _, want := range enum {
			if reflect.DeepEqual(want, doc) {
				return nil
			}
		}
		return fmt.Errorf("%s: value %v not in enum %v", path, doc, enum)
	}

	if ty, ok := sm["type"].(string); ok {
		if err := checkType(ty, doc, path); err != nil {
			return err
		}
	}

	if min, ok := sm["minimum"].(float64); ok {
		n, isNum := doc.(float64)
		if isNum && n < min {
			return fmt.Errorf("%s: %v below minimum %v", path, n, min)
		}
	}

	switch d := doc.(type) {
	case map[string]any:
		props, _ := sm["properties"].(map[string]any)
		if req, ok := sm["required"].([]any); ok {
			for _, k := range req {
				name, _ := k.(string)
				if _, present := d[name]; !present {
					return fmt.Errorf("%s: missing required property %q", path, name)
				}
			}
		}
		for k, v := range d {
			if ps, ok := props[k]; ok {
				if err := validate(ps, v, path+"."+k); err != nil {
					return err
				}
				continue
			}
			switch ap := sm["additionalProperties"].(type) {
			case bool:
				if !ap {
					return fmt.Errorf("%s: unexpected property %q", path, k)
				}
			case map[string]any:
				if err := validate(ap, v, path+"."+k); err != nil {
					return err
				}
			}
		}
	case []any:
		if items, ok := sm["items"]; ok {
			for i, v := range d {
				if err := validate(items, v, fmt.Sprintf("%s[%d]", path, i)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func checkType(ty string, doc any, path string) error {
	ok := false
	switch ty {
	case "object":
		_, ok = doc.(map[string]any)
	case "array":
		_, ok = doc.([]any)
	case "string":
		_, ok = doc.(string)
	case "boolean":
		_, ok = doc.(bool)
	case "number":
		_, ok = doc.(float64)
	case "integer":
		n, isNum := doc.(float64)
		ok = isNum && n == math.Trunc(n)
	case "null":
		ok = doc == nil
	default:
		return fmt.Errorf("%s: schema uses unsupported type %q", path, ty)
	}
	if !ok {
		return fmt.Errorf("%s: expected %s, got %T", path, ty, doc)
	}
	return nil
}
