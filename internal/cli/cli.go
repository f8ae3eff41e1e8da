// Package cli is what the command-line tools and the hippocratesd daemon
// share: the Request they fill and Validate, the Run entrypoint that
// compiles its pmc source or textual IR and executes the pipeline, the
// Response it returns, and the on-disk module writer and trace loader
// and writer.
package cli

import (
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"strings"

	"hippocrates/internal/ir"
	"hippocrates/internal/trace"
)

// WriteModule saves a module in textual IR form.
func WriteModule(m *ir.Module, path string) error {
	return os.WriteFile(path, []byte(ir.Print(m)), 0o644)
}

// LoadTrace reads a serialized PM-operation trace, auto-detecting the
// dialect from the header — the native pmemcheck-style form ("pmtrace ...")
// or the PMTest form ("PMTest v1 ...") — and transparently decompressing
// ".gz" files (real pmemcheck traces run to hundreds of megabytes, §5.1).
func LoadTrace(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var r io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		zr, err := gzip.NewReader(f)
		if err != nil {
			return nil, fmt.Errorf("cli: %s: %w", path, err)
		}
		defer zr.Close()
		r = zr
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	s := string(data)
	if strings.HasPrefix(s, "PMTest ") {
		return trace.ParsePMTestString(s)
	}
	return trace.ParseString(s)
}

// WriteTrace saves a trace in its textual form, gzip-compressed when the
// path ends in ".gz".
func WriteTrace(t *trace.Trace, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".gz") {
		zw := gzip.NewWriter(f)
		if err := t.Write(zw); err != nil {
			zw.Close()
			return err
		}
		return zw.Close()
	}
	return t.Write(f)
}
