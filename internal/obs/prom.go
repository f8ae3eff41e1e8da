// Prometheus text exposition (text/plain; version=0.0.4): a small writer
// that renders metric families with HELP/TYPE headers and escaped label
// values, and a linter that re-parses an exposition and rejects the
// mistakes scrapers choke on (duplicate or invalid names, samples without
// a TYPE, interleaved families, unparsable values). hippocratesd serves
// its /metrics through the writer and `make metrics-smoke` gates the
// output through the linter, so the two halves check each other.
package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// PromLabel is one label pair on a sample.
type PromLabel struct {
	Name  string
	Value string
}

// PromSample is one exposition line: a label set and a value.
type PromSample struct {
	Labels []PromLabel
	Value  float64
}

// PromFamily is one metric family: name, HELP text, TYPE, and samples.
// Valid types are "counter", "gauge", "histogram", "summary", "untyped".
type PromFamily struct {
	Name    string
	Help    string
	Type    string
	Samples []PromSample
}

// promTypes is the exposition format's TYPE vocabulary.
var promTypes = map[string]bool{
	"counter": true, "gauge": true, "histogram": true, "summary": true, "untyped": true,
}

// PromName sanitizes s into a legal metric/label name: legal runes pass
// through, everything else (dots, dashes, ...) becomes '_', and a leading
// digit gets a '_' prefix. "interp.op.store" → "interp_op_store".
func PromName(s string) string {
	if s == "" {
		return "_"
	}
	var b strings.Builder
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// validPromName reports whether s is a legal metric name as-is.
func validPromName(s string) bool {
	return s != "" && s == PromName(s)
}

// validPromLabelName is validPromName minus the colon (reserved).
func validPromLabelName(s string) bool {
	return validPromName(s) && !strings.Contains(s, ":")
}

// WriteProm renders the families in Prometheus text format. It fails
// loudly on contract violations — invalid or duplicate family names, an
// unknown TYPE, invalid label names — so a bad exporter change breaks in
// tests instead of in the scraper.
func WriteProm(w io.Writer, fams []PromFamily) error {
	seen := make(map[string]bool, len(fams))
	bw := bufio.NewWriter(w)
	for _, f := range fams {
		if !validPromName(f.Name) {
			return fmt.Errorf("prom: invalid metric name %q", f.Name)
		}
		if seen[f.Name] {
			return fmt.Errorf("prom: duplicate metric family %q", f.Name)
		}
		seen[f.Name] = true
		if !promTypes[f.Type] {
			return fmt.Errorf("prom: family %q has invalid type %q", f.Name, f.Type)
		}
		if f.Help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.Name, escapePromHelp(f.Help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.Name, f.Type)
		for _, s := range f.Samples {
			bw.WriteString(f.Name)
			if len(s.Labels) > 0 {
				bw.WriteByte('{')
				for i, l := range s.Labels {
					if !validPromLabelName(l.Name) {
						return fmt.Errorf("prom: family %q has invalid label name %q", f.Name, l.Name)
					}
					if i > 0 {
						bw.WriteByte(',')
					}
					fmt.Fprintf(bw, "%s=%q", l.Name, escapePromLabel(l.Value))
				}
				bw.WriteByte('}')
			}
			bw.WriteByte(' ')
			bw.WriteString(formatPromValue(s.Value))
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

// escapePromHelp escapes HELP text (backslash and newline).
func escapePromHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapePromLabel escapes a label value for the %q quoting above: %q
// already handles quote and backslash escaping compatibly with the
// exposition format, so only literal newlines need normalizing first.
func escapePromLabel(s string) string {
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatPromValue renders a sample value the way scrapers expect:
// shortest round-trip float, integers without an exponent or point.
func formatPromValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// LintProm re-parses a text exposition and returns the first defect: an
// invalid metric or label name, a sample for an undeclared family, a
// duplicate TYPE/HELP line, interleaved families, a duplicate sample
// (same name and label set), or a value that doesn't parse as a float.
// It is the `make metrics-smoke` gate over hippocratesd's /metrics.
func LintProm(data []byte) error {
	typeOf := make(map[string]string) // family → TYPE
	helpSeen := make(map[string]bool)
	sampleSeen := make(map[string]bool) // name+labels → true
	closed := make(map[string]bool)     // family → samples ended
	lastFamily := ""
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				continue // free-form comment
			}
			name := fields[2]
			if !validPromName(name) {
				return fmt.Errorf("prom lint: line %d: invalid metric name %q", lineNo, name)
			}
			switch fields[1] {
			case "HELP":
				if helpSeen[name] {
					return fmt.Errorf("prom lint: line %d: duplicate HELP for %q", lineNo, name)
				}
				helpSeen[name] = true
			case "TYPE":
				if _, dup := typeOf[name]; dup {
					return fmt.Errorf("prom lint: line %d: duplicate TYPE for %q", lineNo, name)
				}
				if len(fields) < 4 || !promTypes[fields[3]] {
					return fmt.Errorf("prom lint: line %d: invalid TYPE line %q", lineNo, line)
				}
				if closed[name] {
					return fmt.Errorf("prom lint: line %d: TYPE for %q after its samples", lineNo, name)
				}
				typeOf[name] = fields[3]
			}
			continue
		}

		name, labels, value, err := splitPromSample(line)
		if err != nil {
			return fmt.Errorf("prom lint: line %d: %v", lineNo, err)
		}
		fam := sampleFamily(name, typeOf)
		if fam == "" {
			return fmt.Errorf("prom lint: line %d: sample %q has no TYPE declaration", lineNo, name)
		}
		if fam != lastFamily {
			if lastFamily != "" {
				closed[lastFamily] = true
			}
			if closed[fam] {
				return fmt.Errorf("prom lint: line %d: family %q interleaved with other families", lineNo, fam)
			}
			lastFamily = fam
		}
		key := name + "{" + labels + "}"
		if sampleSeen[key] {
			return fmt.Errorf("prom lint: line %d: duplicate sample %s", lineNo, key)
		}
		sampleSeen[key] = true
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			return fmt.Errorf("prom lint: line %d: bad value %q for %q", lineNo, value, name)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("prom lint: %v", err)
	}
	return nil
}

// sampleFamily resolves a sample name to its declared family: exact
// match, or the base name of a histogram/summary's _sum/_count/_bucket
// series.
func sampleFamily(name string, typeOf map[string]string) string {
	if _, ok := typeOf[name]; ok {
		return name
	}
	for _, suffix := range []string{"_sum", "_count", "_bucket"} {
		base := strings.TrimSuffix(name, suffix)
		if base == name {
			continue
		}
		if t, ok := typeOf[base]; ok && (t == "histogram" || t == "summary") {
			if suffix != "_bucket" || t == "histogram" {
				return base
			}
		}
	}
	return ""
}

// splitPromSample tears one sample line into name, raw label block, and
// value, validating name and label syntax along the way.
func splitPromSample(line string) (name, labels, value string, err error) {
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		name = rest[:i]
		j := strings.LastIndexByte(rest, '}')
		if j < i {
			return "", "", "", fmt.Errorf("unbalanced braces in %q", line)
		}
		labels = rest[i+1 : j]
		rest = strings.TrimSpace(rest[j+1:])
		if err := lintPromLabels(labels); err != nil {
			return "", "", "", err
		}
	} else {
		fields := strings.Fields(rest)
		if len(fields) < 2 {
			return "", "", "", fmt.Errorf("malformed sample %q", line)
		}
		name = fields[0]
		rest = strings.Join(fields[1:], " ")
	}
	if !validPromName(name) {
		return "", "", "", fmt.Errorf("invalid metric name %q", name)
	}
	// A trailing timestamp is legal; the value is the first field.
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return "", "", "", fmt.Errorf("sample %q has no value", line)
	}
	return name, labels, fields[0], nil
}

// lintPromLabels validates a raw label block: comma-separated
// name="value" pairs with legal names and closed quotes.
func lintPromLabels(block string) error {
	rest := block
	for rest != "" {
		eq := strings.IndexByte(rest, '=')
		if eq < 0 {
			return fmt.Errorf("malformed label block %q", block)
		}
		lname := strings.TrimSpace(rest[:eq])
		if !validPromLabelName(lname) {
			return fmt.Errorf("invalid label name %q", lname)
		}
		rest = rest[eq+1:]
		if len(rest) == 0 || rest[0] != '"' {
			return fmt.Errorf("label %q value is not quoted", lname)
		}
		// Scan the quoted value, honoring backslash escapes.
		i := 1
		for i < len(rest) {
			if rest[i] == '\\' {
				i += 2
				continue
			}
			if rest[i] == '"' {
				break
			}
			i++
		}
		if i >= len(rest) {
			return fmt.Errorf("label %q value is unterminated", lname)
		}
		rest = rest[i+1:]
		if rest != "" {
			if rest[0] != ',' {
				return fmt.Errorf("malformed label block %q", block)
			}
			rest = rest[1:]
		}
	}
	return nil
}
