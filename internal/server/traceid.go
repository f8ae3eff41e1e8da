package server

import (
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"strings"
)

// Trace IDs give every request one identity across the whole service:
// the submit's HTTP response header, the job's span-tree root attribute,
// the per-job log line, and (for slow/failed/rejected requests) the
// flight-recorder entry all carry the same ID, so a single grep follows a
// job from enqueue through the shard worker to its outcome. An inbound
// ID is kept, so a proxy or client that already traces the request
// carries the same ID through the daemon.

// TraceHeader is the request/response header carrying the trace ID.
const TraceHeader = "X-Trace-Id"

// TraceFromRequest extracts an inbound trace ID: X-Trace-Id wins, then
// the trace-id field of a W3C traceparent header
// ("00-<32 hex trace-id>-<16 hex parent-id>-<flags>"). Returns "" when
// neither is present or parseable; the caller generates one.
func TraceFromRequest(r *http.Request) string {
	if id := sanitizeTraceID(r.Header.Get(TraceHeader)); id != "" {
		return id
	}
	tp := r.Header.Get("traceparent")
	parts := strings.Split(tp, "-")
	if len(parts) >= 3 && len(parts[1]) == 32 && isHex(parts[1]) && parts[1] != strings.Repeat("0", 32) {
		return strings.ToLower(parts[1])
	}
	return ""
}

// NewTraceID returns a fresh 128-bit random trace ID in lowercase hex —
// the same shape a W3C trace-id has, so it round-trips into traceparent.
func NewTraceID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; degrade to a
		// recognizable constant rather than bringing down the daemon.
		return "00000000000000000000000000000001"
	}
	return hex.EncodeToString(b[:])
}

// sanitizeTraceID accepts caller-supplied IDs that are safe to echo into
// headers, log lines, and JSON: 1-64 characters of [0-9a-zA-Z_-].
func sanitizeTraceID(s string) string {
	if s == "" || len(s) > 64 {
		return ""
	}
	for _, r := range s {
		switch {
		case r >= '0' && r <= '9', r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '-', r == '_':
		default:
			return ""
		}
	}
	return s
}

func isHex(s string) bool {
	for _, r := range s {
		if !(r >= '0' && r <= '9' || r >= 'a' && r <= 'f' || r >= 'A' && r <= 'F') {
			return false
		}
	}
	return s != ""
}
