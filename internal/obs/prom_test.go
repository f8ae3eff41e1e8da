package obs

import (
	"bytes"
	"testing"
)

func renderProm(t *testing.T, fams []PromFamily) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteProm(&buf, fams); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	return buf.Bytes()
}

// TestWritePromFormat pins the exposition grammar the writer emits:
// HELP/TYPE headers, label quoting and escaping, shortest-float values.
func TestWritePromFormat(t *testing.T) {
	out := renderProm(t, []PromFamily{
		{
			Name: "d_up", Help: "is it up\nreally", Type: "gauge",
			Samples: []PromSample{{Value: 1}},
		},
		{
			Name: "d_jobs_total", Help: "jobs", Type: "counter",
			Samples: []PromSample{
				{Labels: []PromLabel{{"outcome", "done"}}, Value: 3},
				{Labels: []PromLabel{{"outcome", `we"ird\one`}}, Value: 0.25},
			},
		},
	})
	want := `# HELP d_up is it up\nreally
# TYPE d_up gauge
d_up 1
# HELP d_jobs_total jobs
# TYPE d_jobs_total counter
d_jobs_total{outcome="done"} 3
d_jobs_total{outcome="we\"ird\\one"} 0.25
`
	if string(out) != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", out, want)
	}
	if err := LintProm(out); err != nil {
		t.Errorf("writer output fails its own linter: %v", err)
	}
}

// TestWritePromRejects: the writer refuses contract violations instead of
// emitting an exposition a scraper would drop.
func TestWritePromRejects(t *testing.T) {
	cases := map[string][]PromFamily{
		"invalid name": {{Name: "bad.dots", Type: "gauge"}},
		"empty name":   {{Name: "", Type: "gauge"}},
		"dup family":   {{Name: "a", Type: "gauge"}, {Name: "a", Type: "gauge"}},
		"bad type":     {{Name: "a", Type: "distribution"}},
		"bad label": {{Name: "a", Type: "gauge",
			Samples: []PromSample{{Labels: []PromLabel{{"bad-label", "x"}}, Value: 1}}}},
		"colon label": {{Name: "a", Type: "gauge",
			Samples: []PromSample{{Labels: []PromLabel{{"a:b", "x"}}, Value: 1}}}},
	}
	for name, fams := range cases {
		var buf bytes.Buffer
		if err := WriteProm(&buf, fams); err == nil {
			t.Errorf("%s: WriteProm accepted %+v", name, fams)
		}
	}
}

// TestLintPromCatches feeds the linter the classic exposition defects.
func TestLintPromCatches(t *testing.T) {
	good := `# HELP x_total things
# TYPE x_total counter
x_total{k="v"} 1
x_total{k="w"} 2
# TYPE y gauge
y 0.5
# TYPE h histogram
h_bucket{le="1"} 3
h_sum 4
h_count 3
`
	if err := LintProm([]byte(good)); err != nil {
		t.Fatalf("linter rejected a valid exposition: %v", err)
	}

	bad := map[string]string{
		"no TYPE":          "x 1\n",
		"dup TYPE":         "# TYPE x gauge\n# TYPE x gauge\nx 1\n",
		"dup HELP":         "# HELP x a\n# HELP x b\n# TYPE x gauge\nx 1\n",
		"bad TYPE":         "# TYPE x dist\nx 1\n",
		"TYPE after use":   "# TYPE x gauge\nx 1\n# TYPE y gauge\ny 1\n# TYPE x2 gauge\nx 2\n",
		"dup sample":       "# TYPE x gauge\nx{a=\"1\"} 1\nx{a=\"1\"} 2\n",
		"bad value":        "# TYPE x gauge\nx one\n",
		"bad metric name":  "# TYPE x gauge\nx 1\n# TYPE b.d gauge\n",
		"bad label name":   "# TYPE x gauge\nx{bad-l=\"1\"} 1\n",
		"unquoted label":   "# TYPE x gauge\nx{a=1} 1\n",
		"unbalanced brace": "# TYPE x gauge\nx{a=\"1\" 1\n",
		"interleaved":      "# TYPE x gauge\n# TYPE y gauge\nx 1\ny 1\nx{k=\"2\"} 2\n",
		"bucket on gauge":  "# TYPE x gauge\nx_bucket{le=\"1\"} 1\n",
	}
	for name, doc := range bad {
		if err := LintProm([]byte(doc)); err == nil {
			t.Errorf("%s: linter accepted:\n%s", name, doc)
		}
	}

	// Special float values and trailing timestamps are legal.
	legal := "# TYPE x gauge\nx{a=\"1\"} +Inf\nx{a=\"2\"} NaN 1700000000\n"
	if err := LintProm([]byte(legal)); err != nil {
		t.Errorf("linter rejected special values/timestamps: %v", err)
	}
}

// TestPromName pins the sanitizer.
func TestPromName(t *testing.T) {
	cases := map[string]string{
		"interp.op.store": "interp_op_store",
		"server.job.ns":   "server_job_ns",
		"ok_name:sub":     "ok_name:sub",
		"9lives":          "_9lives",
		"":                "_",
		"a b-c":           "a_b_c",
	}
	for in, want := range cases {
		if got := PromName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
}
