package rest

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"testing"

	"crosse/internal/core"
	"crosse/internal/fdw"
	"crosse/internal/kb"
	"crosse/internal/serve"
)

// TestClassify pins the status and code each error class is answered
// with, through the wrapping the executor adds. A source that fails after
// delivering rows (fdw.ErrInterrupted) is unavailable, never a bad request.
func TestClassify(t *testing.T) {
	scan := func(err error) error { return fmt.Errorf("scan remote_elem_contained: %w", err) }
	for _, c := range []struct {
		name   string
		err    error
		status int
		code   string
	}{
		{"unknown user", kb.ErrUnknownUser, http.StatusNotFound, codeNotFound},
		{"overloaded", serve.ErrOverloaded, http.StatusTooManyRequests, codeOverloaded},
		{"source down", scan(&fdw.SourceDownError{Source: "dn", State: fdw.BreakerOpen}), http.StatusServiceUnavailable, codeUnavailable},
		{"source down, breaker closed", scan(&fdw.SourceDownError{Source: "dn", Reason: errors.New("3 attempt(s) failed")}), http.StatusServiceUnavailable, codeUnavailable},
		{"stream interrupted", scan(fmt.Errorf("%w (source %q, 7 row(s) delivered): EOF", fdw.ErrInterrupted, "dn")), http.StatusServiceUnavailable, codeUnavailable},
		{"wedged journal", core.ErrWedged, http.StatusServiceUnavailable, codeUnavailable},
		{"deadline", context.DeadlineExceeded, http.StatusServiceUnavailable, codeUnavailable},
		{"malformed query", errors.New("sesql: unexpected token"), http.StatusBadRequest, codeBadRequest},
	} {
		if status, code := classify(c.err); status != c.status || code != c.code {
			t.Errorf("%s: classify = %d %s, want %d %s", c.name, status, code, c.status, c.code)
		}
	}
}
