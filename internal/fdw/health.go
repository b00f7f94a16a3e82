package fdw

// health.go — the per-source health registry. Every attached remote source
// registers its Client; the registry pings each one on an interval (the
// probe that closes a half-open circuit once the peer returns) and exposes
// a snapshot that crosse-server serves via GET /api/v1/admin/sources and
// folds into GET /healthz.

import (
	"context"
	"sort"
	"sync"
	"time"
)

// SourceStatus is one source's externally visible health.
type SourceStatus struct {
	Name     string `json:"name"`
	State    string `json:"state"` // closed | open | half-open
	LastErr  string `json:"last_error,omitempty"`
	Requests int    `json:"requests"`
	Rows     int    `json:"rows"`
	Retries  int    `json:"retries"`
	Trips    int    `json:"circuit_trips"`
	Rejected int    `json:"rejected_fast"`
	Failed   int    `json:"failed"`
	Conns    int    `json:"conns"` // open connections, idle plus in flight
	// LastProbe is when the registry last pinged the source (zero before
	// the first poll).
	LastProbe time.Time `json:"last_probe,omitempty"`
}

// Healthy reports whether the circuit is closed.
func (s SourceStatus) Healthy() bool { return s.State == BreakerClosed.String() }

// Health is a registry of remote sources. Safe for concurrent use.
type Health struct {
	mu      sync.Mutex
	sources map[string]*Client
	probed  map[string]time.Time
}

// NewHealth builds an empty registry.
func NewHealth() *Health {
	return &Health{sources: map[string]*Client{}, probed: map[string]time.Time{}}
}

// Register adds (or replaces) a source under its client name.
func (h *Health) Register(c *Client) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sources[c.Name()] = c
}

// Snapshot reports every registered source's health, sorted by name. It
// never blocks behind in-flight requests.
func (h *Health) Snapshot() []SourceStatus {
	h.mu.Lock()
	clients := make([]*Client, 0, len(h.sources))
	for _, c := range h.sources {
		clients = append(clients, c)
	}
	probed := make(map[string]time.Time, len(h.probed))
	for k, v := range h.probed {
		probed[k] = v
	}
	h.mu.Unlock()

	out := make([]SourceStatus, 0, len(clients))
	for _, c := range clients {
		state, lastErr := c.breaker.State()
		cnt := c.breaker.counters()
		reqs, rows := c.Stats()
		st := SourceStatus{
			Name:      c.Name(),
			State:     state.String(),
			Requests:  reqs,
			Rows:      rows,
			Retries:   c.Retries(),
			Trips:     cnt.trips,
			Rejected:  cnt.rejected,
			Failed:    cnt.failed,
			Conns:     c.Conns(),
			LastProbe: probed[c.Name()],
		}
		if lastErr != nil {
			st.LastErr = lastErr.Error()
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// AllHealthy reports whether every registered source's circuit is closed
// (vacuously true with no sources).
func (h *Health) AllHealthy() bool {
	for _, s := range h.Snapshot() {
		if !s.Healthy() {
			return false
		}
	}
	return true
}

// Poll pings every registered source once per interval until ctx is done.
// A ping through an open circuit waits out the breaker's probe interval
// and then becomes the half-open probe, so a recovered peer is readmitted
// within one breaker-probe + one poll interval without any query traffic.
func (h *Health) Poll(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			h.PollOnce(ctx)
		}
	}
}

// PollOnce pings every registered source once (exported for tests and for
// readiness checks that want an immediate probe).
func (h *Health) PollOnce(ctx context.Context) {
	h.mu.Lock()
	clients := make([]*Client, 0, len(h.sources))
	for _, c := range h.sources {
		clients = append(clients, c)
	}
	h.mu.Unlock()
	for _, c := range clients {
		_ = c.Ping(ctx) // outcome lands in the breaker either way
		h.mu.Lock()
		h.probed[c.Name()] = time.Now()
		h.mu.Unlock()
	}
}
