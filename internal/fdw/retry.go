package fdw

// retry.go — typed errors and the retry/backoff policy of the resilient
// FDW client. Transient transport failures (dial refused, connection
// reset, torn stream) on idempotent operations retry with capped
// exponential backoff plus jitter; remote application errors and local
// lifecycle errors never retry.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"time"

	"crosse/internal/sqldb"
)

// ErrSourceDown marks operations rejected because the source's circuit
// breaker is open (the peer is known to be down). It aliases
// sqldb.ErrSourceDown so the executor can classify it without importing
// the network stack. Match with errors.Is.
var ErrSourceDown = sqldb.ErrSourceDown

// ErrClientClosed marks operations attempted on (or interrupted by) a
// closed Client. Close during an in-flight round trip surfaces this, not a
// decoder panic or a garbage read.
var ErrClientClosed = errors.New("fdw: client closed")

// ErrInterrupted marks a result stream that failed after rows were already
// delivered to the consumer. The client cannot transparently retry without
// duplicating rows, so the caller gets a typed error instead of a silently
// truncated result.
var ErrInterrupted = errors.New("fdw: result stream interrupted mid-scan")

// SourceDownError is the concrete error behind ErrSourceDown: which source,
// the circuit state, and the failure that opened the circuit.
type SourceDownError struct {
	Source string       // source name; filled by the Client
	State  BreakerState // circuit position at rejection time
	Reason error        // the failure that opened the circuit (may be nil)
}

func (e *SourceDownError) Error() string {
	msg := fmt.Sprintf("fdw: source %q down (circuit %s)", e.Source, e.State)
	if e.Reason != nil {
		msg += ": " + e.Reason.Error()
	}
	return msg
}

// Unwrap lets errors.Is(err, ErrSourceDown) match.
func (e *SourceDownError) Unwrap() error { return ErrSourceDown }

// SourceName implements sqldb.SourceNamer for partial-results reporting.
func (e *SourceDownError) SourceName() string { return e.Source }

// remoteError is an application-level error reported by the peer (bad
// table, scan failure, …). The peer is alive and the protocol stayed in
// sync, so remote errors never retry and never trip the breaker.
type remoteError struct{ msg string }

func (e *remoteError) Error() string { return "fdw: remote: " + e.msg }

// RetryPolicy bounds the client's retry loop. The zero value picks
// defaults; MaxAttempts 1 disables retries.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per operation, first
	// included (default 3).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (default 25ms);
	// each further retry doubles it, capped at MaxDelay (default 1s).
	// The actual sleep is jittered uniformly over [delay/2, delay] so
	// clients recovering together do not re-dial in lockstep.
	BaseDelay time.Duration
	MaxDelay  time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 25 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = time.Second
	}
	return p
}

// delay returns the jittered backoff before retry number n (1-based).
func (p RetryPolicy) delay(n int) time.Duration {
	d := p.BaseDelay << (n - 1)
	if d <= 0 || d > p.MaxDelay {
		d = p.MaxDelay
	}
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(half)+1))
}

// isTransient reports whether a transport-layer failure may succeed on a
// fresh connection: dial refused/reset, deadline expiry, and any torn or
// desynchronised stream (the client drops the connection on every
// transport error, so a retry always starts clean). Remote application
// errors, protocol violations, breaker rejections and client-lifecycle
// errors are permanent.
func isTransient(err error) bool {
	var re *remoteError
	switch {
	case err == nil,
		errors.Is(err, ErrClientClosed),
		errors.Is(err, ErrSourceDown),
		errors.Is(err, ErrInterrupted),
		errors.Is(err, errNoRedial),
		errors.Is(err, ErrProtocol),
		errors.As(err, &re):
		return false
	}
	return true
}

// isDeadline reports whether err is a deadline/cancellation expiry.
func isDeadline(err error) bool {
	if errors.Is(err, os.ErrDeadlineExceeded) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, context.Canceled) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
