package fdw

// faultconn_test.go — the network seam of the fault-injection suite,
// mirroring wal.FaultFS on the durability side. NewClientDialer builds a
// client over a connection factory; FaultConn is a net.Conn wrapper that
// injects one scripted fault at the Nth read-or-write. Deterministic (the
// trigger is an operation index, not a timer race), honours deadlines
// while blocking (so FaultBlackhole models a peer that stops responding
// without breaking the client's deadline machinery), and sticky where the
// real failure would be (a reset connection stays reset).

import (
	"net"
	"os"
	"sync"
	"time"
)

// FaultMode selects the failure injected at the trigger operation.
type FaultMode int

const (
	// FaultNone passes everything through.
	FaultNone FaultMode = iota
	// FaultLatency stalls the trigger operation for Latency, then lets it
	// proceed. With a stall longer than the request deadline this models
	// a slow peer tripping the timeout.
	FaultLatency
	// FaultError fails the trigger operation with a connection-reset
	// error; the connection is broken from then on.
	FaultError
	// FaultShortWrite writes half of the trigger write's bytes to the
	// peer, then fails; the connection is broken from then on. The peer
	// is left holding a torn frame.
	FaultShortWrite
	// FaultHangup closes the underlying connection at the trigger
	// operation — both directions die mid-stream.
	FaultHangup
	// FaultBlackhole blocks the trigger operation (and every later one)
	// until the deadline expires or the connection is closed: the peer
	// has silently stopped responding.
	FaultBlackhole
)

// errInjectedReset mimics a peer reset without depending on syscall
// errno values.
type injectedError struct{ msg string }

func (e *injectedError) Error() string { return e.msg }

// FaultConn wraps a net.Conn and injects Mode at operation index At
// (0-based, counting reads and writes on this wrapper). FaultShortWrite
// waits for the first write at or after the trigger index; other modes
// fire on whichever operation reaches the index first.
type FaultConn struct {
	inner   net.Conn
	mode    FaultMode
	at      int
	latency time.Duration

	mu     sync.Mutex
	ops    int
	fired  bool
	broken error         // sticky post-fault failure
	dlCh   chan struct{} // closed+replaced whenever a deadline changes
	rdl    time.Time
	wdl    time.Time

	closed    chan struct{}
	closeOnce sync.Once
}

// NewFaultConn wraps inner with one scripted fault. latency is only used
// by FaultLatency.
func NewFaultConn(inner net.Conn, mode FaultMode, at int, latency time.Duration) *FaultConn {
	return &FaultConn{
		inner:   inner,
		mode:    mode,
		at:      at,
		latency: latency,
		dlCh:    make(chan struct{}),
		closed:  make(chan struct{}),
	}
}

type faultAction int

const (
	actPass faultAction = iota
	actLatency
	actError
	actShortWrite
	actHangup
	actBlackhole
	actBroken
)

// step counts one operation and decides what happens to it.
func (c *FaultConn) step(isWrite bool) faultAction {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.broken != nil {
		return actBroken
	}
	if c.fired && c.mode == FaultBlackhole {
		return actBlackhole
	}
	op := c.ops
	c.ops++
	if c.fired || c.mode == FaultNone || op < c.at {
		return actPass
	}
	// Trigger index reached.
	switch c.mode {
	case FaultLatency:
		c.fired = true
		return actLatency
	case FaultError:
		c.fired = true
		c.broken = &injectedError{"fdw: injected connection reset"}
		return actError
	case FaultShortWrite:
		if !isWrite {
			return actPass // stay armed for the next write
		}
		c.fired = true
		c.broken = &injectedError{"fdw: injected short write"}
		return actShortWrite
	case FaultHangup:
		c.fired = true
		return actHangup
	case FaultBlackhole:
		c.fired = true
		return actBlackhole
	}
	return actPass
}

// Ops reports how many reads and writes the conn has counted so far.
func (c *FaultConn) Ops() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ops
}

// Fired reports whether the scripted fault has been injected.
func (c *FaultConn) Fired() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fired
}

// wait blocks until the relevant deadline passes, the conn is closed, or
// (bounded wait) d elapses. d <= 0 means wait indefinitely. It returns the
// error to surface, or nil when the bounded wait simply completed.
func (c *FaultConn) wait(d time.Duration, read bool) error {
	var boundCh <-chan time.Time
	if d > 0 {
		bt := time.NewTimer(d)
		defer bt.Stop()
		boundCh = bt.C
	}
	for {
		c.mu.Lock()
		dl := c.wdl
		if read {
			dl = c.rdl
		}
		ch := c.dlCh
		c.mu.Unlock()
		var dlCh <-chan time.Time
		if !dl.IsZero() {
			remain := time.Until(dl)
			if remain <= 0 {
				return os.ErrDeadlineExceeded
			}
			dt := time.NewTimer(remain)
			defer dt.Stop()
			dlCh = dt.C
		}
		select {
		case <-c.closed:
			return net.ErrClosed
		case <-boundCh:
			return nil
		case <-dlCh:
			return os.ErrDeadlineExceeded
		case <-ch:
			// deadline changed: reevaluate
		}
	}
}

func (c *FaultConn) Read(p []byte) (int, error) {
	switch c.step(false) {
	case actLatency:
		if err := c.wait(c.latency, true); err != nil {
			return 0, err
		}
	case actError:
		return 0, &injectedError{"fdw: injected connection reset"}
	case actHangup:
		c.inner.Close()
	case actBlackhole:
		err := c.wait(0, true)
		if err == nil {
			err = os.ErrDeadlineExceeded
		}
		return 0, err
	case actBroken:
		c.mu.Lock()
		err := c.broken
		c.mu.Unlock()
		return 0, err
	}
	return c.inner.Read(p)
}

func (c *FaultConn) Write(p []byte) (int, error) {
	switch c.step(true) {
	case actLatency:
		if err := c.wait(c.latency, false); err != nil {
			return 0, err
		}
	case actError:
		return 0, &injectedError{"fdw: injected connection reset"}
	case actShortWrite:
		n, _ := c.inner.Write(p[:len(p)/2])
		return n, &injectedError{"fdw: injected short write"}
	case actHangup:
		c.inner.Close()
	case actBlackhole:
		err := c.wait(0, false)
		if err == nil {
			err = os.ErrDeadlineExceeded
		}
		return 0, err
	case actBroken:
		c.mu.Lock()
		err := c.broken
		c.mu.Unlock()
		return 0, err
	}
	return c.inner.Write(p)
}

func (c *FaultConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.inner.Close()
}

func (c *FaultConn) LocalAddr() net.Addr  { return c.inner.LocalAddr() }
func (c *FaultConn) RemoteAddr() net.Addr { return c.inner.RemoteAddr() }

func (c *FaultConn) SetDeadline(t time.Time) error {
	c.setDeadlines(t, t)
	return c.inner.SetDeadline(t)
}

func (c *FaultConn) SetReadDeadline(t time.Time) error {
	c.setDeadlines(t, c.peekWriteDeadline())
	return c.inner.SetReadDeadline(t)
}

func (c *FaultConn) SetWriteDeadline(t time.Time) error {
	c.setDeadlines(c.peekReadDeadline(), t)
	return c.inner.SetWriteDeadline(t)
}

func (c *FaultConn) setDeadlines(r, w time.Time) {
	c.mu.Lock()
	c.rdl, c.wdl = r, w
	close(c.dlCh) // wake blocked ops to reevaluate
	c.dlCh = make(chan struct{})
	c.mu.Unlock()
}

func (c *FaultConn) peekReadDeadline() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rdl
}

func (c *FaultConn) peekWriteDeadline() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wdl
}

var _ net.Conn = (*FaultConn)(nil)

// NewClientDialer builds a client around a connection factory, so a test
// can hand out FaultConn-wrapped connections. The first connection is
// established lazily.
func NewClientDialer(cfg Config, dial func() (net.Conn, error)) *Client {
	if cfg.Name == "" {
		cfg.Name = "fdw"
	}
	return newClient(cfg, func(time.Duration) (net.Conn, error) { return dial() })
}
