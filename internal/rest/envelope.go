package rest

import (
	"context"
	"errors"
	"net/http"

	"crosse/internal/core"
	"crosse/internal/fdw"
	"crosse/internal/kb"
	"crosse/internal/serve"
)

// The v1 API's uniform error envelope: every non-2xx response is
//
//	{"error": {"code": "...", "message": "...", "details": {...}}}
//
// with a machine-readable code per error class, so clients branch on code
// instead of parsing message strings. See docs/API.md for the catalogue.
type apiError struct {
	Code    string         `json:"code"`
	Message string         `json:"message"`
	Details map[string]any `json:"details,omitempty"`
}

type errorEnvelope struct {
	Error apiError `json:"error"`
}

// Error codes. Stable API surface — tests and clients match on these.
const (
	codeBadRequest  = "bad_request"
	codeNotFound    = "not_found"
	codeConflict    = "conflict"
	codeOverloaded  = "overloaded"
	codeUnavailable = "unavailable"
	codeInternal    = "internal"
)

// classify maps an error to its HTTP status and envelope code. Unmatched
// errors are client errors (400): the platform's validation errors
// (malformed SESQL/SPARQL, unknown columns, missing believers…) all land
// there, matching the legacy surface.
func classify(err error) (int, string) {
	var dup *kb.DupError
	switch {
	case errors.Is(err, kb.ErrUnknownUser), errors.Is(err, kb.ErrNoStatement):
		return http.StatusNotFound, codeNotFound
	case errors.As(err, &dup):
		return http.StatusConflict, codeConflict
	case errors.Is(err, serve.ErrOverloaded):
		return http.StatusTooManyRequests, codeOverloaded
	case errors.Is(err, fdw.ErrSourceDown), errors.Is(err, core.ErrWedged):
		return http.StatusServiceUnavailable, codeUnavailable
	case errors.Is(err, fdw.ErrInterrupted):
		// A source failed after some of its rows were delivered: no
		// partial-results policy may skip it, and the query was fine.
		return http.StatusServiceUnavailable, codeUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		// The client went away or its deadline passed while queued.
		return http.StatusServiceUnavailable, codeUnavailable
	default:
		return http.StatusBadRequest, codeBadRequest
	}
}

// writeError classifies err and writes the uniform envelope.
func writeError(w http.ResponseWriter, err error) {
	status, code := classify(err)
	writeErrorCode(w, status, code, err, nil)
}

// writeErrorCode writes the envelope with an explicit status + code (for
// cases classify cannot infer, e.g. configuration conflicts and internal
// failures).
func writeErrorCode(w http.ResponseWriter, status int, code string, err error, details map[string]any) {
	writeJSON(w, status, errorEnvelope{Error: apiError{
		Code:    code,
		Message: err.Error(),
		Details: details,
	}})
}

// page is the pagination window parsed from limit/offset query
// parameters. The default and maximum limits are part of the documented
// v1 contract.
type page struct {
	Limit  int
	Offset int
}

const (
	defaultPageLimit = 100
	maxPageLimit     = 1000
)

// parsePage reads limit/offset, clamping to the documented bounds.
// Invalid values fall back to the defaults rather than erroring: listings
// must stay usable from hand-typed curl.
func parsePage(r *http.Request) page {
	p := page{Limit: defaultPageLimit}
	q := r.URL.Query()
	if v := q.Get("limit"); v != "" {
		if n, err := atoiStrict(v); err == nil && n > 0 {
			p.Limit = min(n, maxPageLimit)
		}
	}
	if v := q.Get("offset"); v != "" {
		if n, err := atoiStrict(v); err == nil && n > 0 {
			p.Offset = n
		}
	}
	return p
}

func atoiStrict(s string) (int, error) {
	var n int
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, errors.New("rest: not a number")
		}
		n = n*10 + int(c-'0')
		if n > 1<<30 {
			return 0, errors.New("rest: out of range")
		}
	}
	return n, nil
}

// slicePage applies the window to a slice of any element type and returns
// the page plus the pre-slice total.
func slicePage[T any](items []T, p page) (paged []T, total int) {
	total = len(items)
	lo := min(p.Offset, total)
	hi := min(lo+p.Limit, total)
	return items[lo:hi], total
}

// listEnvelope renders a paginated collection response: the items under
// their collection key plus the window that produced them.
func listEnvelope(key string, items any, p page, total int) map[string]any {
	return map[string]any{
		key:      items,
		"total":  total,
		"limit":  p.Limit,
		"offset": p.Offset,
	}
}

// statusWriter captures the response status for the metrics middleware.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}
