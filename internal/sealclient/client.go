// Package sealclient is the Go client for a SEALDB network server
// (internal/server): a connection pool where every connection
// pipelines requests — many may be outstanding at once, responses are
// matched to waiters by request ID in whatever order the server sends
// them — with per-request timeouts and bounded retries of idempotent
// reads over redialed connections.
//
// The client speaks only internal/wire; it has no dependency on the
// engine, so it is exactly what an external consumer of the protocol
// would build.
package sealclient

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"sealdb/internal/wire"
)

// Client errors. Status-mapped errors wrap these sentinels, so
// errors.Is works across the network boundary.
var (
	// ErrNotFound reports a GET for a key that does not exist.
	ErrNotFound = errors.New("sealclient: key not found")
	// ErrDegraded reports a write rejected because the remote store is
	// in read-only degraded mode after a permanent device failure;
	// retrying against the same server cannot succeed.
	ErrDegraded = errors.New("sealclient: store is in read-only degraded mode")
	// ErrStoreClosed reports an operation against a closed remote DB.
	ErrStoreClosed = errors.New("sealclient: remote store is closed")
	// ErrUnavailable reports a refused connection or request (server
	// full or shutting down).
	ErrUnavailable = errors.New("sealclient: server unavailable")
	// ErrTimeout reports a request that exceeded its per-request
	// timeout; its fate at the server is unknown.
	ErrTimeout = errors.New("sealclient: request timed out")
	// ErrClosed reports use of a closed client.
	ErrClosed = errors.New("sealclient: client is closed")
	// ErrConn wraps transport-level failures (dial, read, write, reset).
	ErrConn = errors.New("sealclient: connection error")
	// ErrCorrupt reports that the server detected on-media corruption
	// (an SSTable block failed its CRC) while serving the request.
	ErrCorrupt = errors.New("sealclient: store detected media corruption")
)

// Options tunes a client. The zero value dials with the defaults.
type Options struct {
	// Conns is the connection pool size. 0 means 1.
	Conns int
	// Timeout is the per-request timeout. 0 means 10s.
	Timeout time.Duration
	// DialTimeout bounds connection establishment (including the
	// handshake). 0 means 5s.
	DialTimeout time.Duration
	// ReadRetries is how many extra attempts an idempotent read (GET,
	// SCAN, STATS) gets after a connection-level failure, each on a
	// freshly dialed connection after an exponential-backoff sleep
	// with full jitter. Writes are never retried — not on failures
	// and not while the server reports DEGRADED — because a timed-out
	// or broken write may still have committed. 0 means 2; negative
	// disables retries.
	ReadRetries int
	// RetryBaseDelay is the backoff cap for the first retry; each
	// further retry doubles the cap and the actual sleep is uniform
	// in [0, cap) (full jitter). While the server reports DEGRADED
	// the caps are multiplied by 4: the store will not heal by
	// hammering it. 0 means 2ms.
	RetryBaseDelay time.Duration
	// RetryMaxDelay caps the per-retry backoff regardless of attempt
	// count. 0 means 100ms.
	RetryMaxDelay time.Duration
	// RetryBudget bounds the total backoff sleep one call may spend;
	// a retry whose delay would exceed the remaining budget is not
	// attempted. 0 means 1s.
	RetryBudget time.Duration
	// Sleep replaces time.Sleep for backoff waits; tests and the
	// chaos harness inject recorders or no-ops here. Nil means
	// time.Sleep. It is called once per retry, including zero
	// delays.
	Sleep func(time.Duration)
	// Rand replaces the jitter source: it must return a uniform
	// value in [0, n). Nil means a private math/rand source seeded
	// from the clock at Dial. Called concurrently; the default is
	// mutex-guarded, injected sources must be safe themselves.
	Rand func(n int64) int64
	// MaxFrame bounds accepted response frames. 0 means
	// wire.DefaultMaxFrame.
	MaxFrame int
	// Trace requests wire.FeatureTrace in the handshake: the server
	// then threads this client's request ids into the engine tracer,
	// so sampled operations journal span trees attributing physical
	// I/O back to individual requests. Check Features() after Dial to
	// see whether the server granted it.
	Trace bool
}

func (o *Options) conns() int {
	if o.Conns > 0 {
		return o.Conns
	}
	return 1
}

func (o *Options) timeout() time.Duration {
	if o.Timeout > 0 {
		return o.Timeout
	}
	return 10 * time.Second
}

func (o *Options) dialTimeout() time.Duration {
	if o.DialTimeout > 0 {
		return o.DialTimeout
	}
	return 5 * time.Second
}

func (o *Options) readRetries() int {
	if o.ReadRetries < 0 {
		return 0
	}
	if o.ReadRetries == 0 {
		return 2
	}
	return o.ReadRetries
}

func (o *Options) maxFrame() int {
	if o.MaxFrame > 0 {
		return o.MaxFrame
	}
	return wire.DefaultMaxFrame
}

func (o *Options) retryBaseDelay() time.Duration {
	if o.RetryBaseDelay > 0 {
		return o.RetryBaseDelay
	}
	return 2 * time.Millisecond
}

func (o *Options) retryMaxDelay() time.Duration {
	if o.RetryMaxDelay > 0 {
		return o.RetryMaxDelay
	}
	return 100 * time.Millisecond
}

func (o *Options) retryBudget() time.Duration {
	if o.RetryBudget > 0 {
		return o.RetryBudget
	}
	return time.Second
}

// Client is a pooled, pipelining SEALDB client. Safe for concurrent
// use; concurrent requests on the same pooled connection pipeline.
type Client struct {
	addr string
	o    Options

	rr     atomic.Uint64 // round-robin cursor
	slots  []*connSlot
	closed atomic.Bool

	// degraded tracks the last write's view of the server: set when a
	// write is rejected with DEGRADED, cleared when one succeeds.
	// While set, read-retry backoff caps are multiplied.
	degraded atomic.Bool

	sleep func(time.Duration)
	rnd   func(n int64) int64

	// Features is the feature mask negotiated on the first dialed
	// connection.
	features atomic.Uint32
}

// Dial connects to a server, establishing (and handshaking) the first
// pooled connection eagerly so configuration errors surface here; the
// rest of the pool dials lazily.
func Dial(addr string, o Options) (*Client, error) {
	c := &Client{addr: addr, o: o, slots: make([]*connSlot, o.conns())}
	for i := range c.slots {
		c.slots[i] = &connSlot{}
	}
	c.sleep = o.Sleep
	if c.sleep == nil {
		c.sleep = time.Sleep
	}
	c.rnd = o.Rand
	if c.rnd == nil {
		var mu sync.Mutex
		src := rand.New(rand.NewSource(time.Now().UnixNano()))
		c.rnd = func(n int64) int64 {
			mu.Lock()
			defer mu.Unlock()
			return src.Int63n(n)
		}
	}
	cc, err := c.slots[0].get(c)
	if err != nil {
		return nil, err
	}
	c.features.Store(cc.features)
	return c, nil
}

// Features returns the feature mask negotiated with the server.
func (c *Client) Features() uint32 { return c.features.Load() }

// Close tears down every pooled connection. In-flight requests fail
// with ErrConn.
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	for _, s := range c.slots {
		s.close()
	}
	return nil
}

// pick returns a live pooled connection, dialing its slot if needed.
func (c *Client) pick() (*clientConn, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	n := c.rr.Add(1)
	return c.slots[int(n)%len(c.slots)].get(c)
}

// roundTrip sends one request on one connection and waits for its
// reply.
func (c *Client) roundTrip(op wire.Op, payload []byte) (wire.Status, []byte, error) {
	cc, err := c.pick()
	if err != nil {
		return 0, nil, err
	}
	return cc.do(op, payload, c.o.timeout())
}

// readRoundTrip is roundTrip plus the bounded idempotent-read retry
// loop: connection-level failures redial and retry after an
// exponential-backoff sleep with full jitter, until the attempt bound
// or the per-call sleep budget runs out. Status errors and timeouts
// are never retried (a timeout's fate at the server is unknown).
func (c *Client) readRoundTrip(op wire.Op, payload []byte) (wire.Status, []byte, error) {
	var lastErr error
	var slept time.Duration
	budget := c.o.retryBudget()
	for attempt := 0; attempt <= c.o.readRetries(); attempt++ {
		if attempt > 0 {
			d := c.backoffDelay(attempt - 1)
			if slept+d > budget {
				break // retry budget exhausted; report the last failure
			}
			slept += d
			c.sleep(d)
		}
		st, body, err := c.roundTrip(op, payload)
		if err == nil {
			return st, body, nil
		}
		lastErr = err
		if !errors.Is(err, ErrConn) {
			break
		}
	}
	return 0, nil, lastErr
}

// backoffDelay computes the sleep before retry number attempt+1:
// uniform in [0, cap) where cap doubles per attempt from
// RetryBaseDelay up to RetryMaxDelay (full jitter, per the AWS
// architecture blog's taxonomy). A client that last saw the server
// DEGRADED quadruples both cap and ceiling: the store is read-only
// after a permanent device failure and will not heal under pressure.
func (c *Client) backoffDelay(attempt int) time.Duration {
	if attempt > 30 {
		attempt = 30 // avoid shift overflow; the cap clamps anyway
	}
	capDelay := c.o.retryBaseDelay() << uint(attempt)
	maxDelay := c.o.retryMaxDelay()
	if c.degraded.Load() {
		capDelay *= 4
		maxDelay *= 4
	}
	if capDelay > maxDelay {
		capDelay = maxDelay
	}
	if capDelay <= 0 {
		return 0
	}
	return time.Duration(c.rnd(int64(capDelay)))
}

// noteWriteStatus updates the client's degraded view from a write's
// reply status.
func (c *Client) noteWriteStatus(st wire.Status) {
	switch st {
	case wire.StatusOK:
		c.degraded.Store(false)
	case wire.StatusDegraded:
		c.degraded.Store(true)
	}
}

// Degraded reports whether the most recent write observed the server
// in read-only degraded mode.
func (c *Client) Degraded() bool { return c.degraded.Load() }

// statusErr maps a non-OK reply to a wrapped sentinel error.
func statusErr(st wire.Status, body []byte) error {
	msg := string(body)
	switch st {
	case wire.StatusNotFound:
		return ErrNotFound
	case wire.StatusDegraded:
		return fmt.Errorf("%w: %s", ErrDegraded, msg)
	case wire.StatusClosed:
		return fmt.Errorf("%w: %s", ErrStoreClosed, msg)
	case wire.StatusUnavailable:
		return fmt.Errorf("%w: %s", ErrUnavailable, msg)
	case wire.StatusCorrupt:
		return fmt.Errorf("%w: %s", ErrCorrupt, msg)
	default:
		return fmt.Errorf("sealclient: %s: %s", st, msg)
	}
}

// Get returns the value of key. Idempotent: retried on connection
// failures up to the configured bound.
func (c *Client) Get(key []byte) ([]byte, error) {
	st, body, err := c.readRoundTrip(wire.OpGet, wire.AppendGet(nil, key))
	if err != nil {
		return nil, err
	}
	if st != wire.StatusOK {
		return nil, statusErr(st, body)
	}
	return body, nil
}

// Put writes a key/value pair. Not retried.
func (c *Client) Put(key, value []byte) error {
	st, body, err := c.roundTrip(wire.OpPut, wire.AppendPut(nil, key, value))
	if err != nil {
		return err
	}
	c.noteWriteStatus(st)
	if st != wire.StatusOK {
		return statusErr(st, body)
	}
	return nil
}

// Delete writes a tombstone for key. Not retried.
func (c *Client) Delete(key []byte) error {
	st, body, err := c.roundTrip(wire.OpDelete, wire.AppendDelete(nil, key))
	if err != nil {
		return err
	}
	c.noteWriteStatus(st)
	if st != wire.StatusOK {
		return statusErr(st, body)
	}
	return nil
}

// Batch collects mutations for one atomic WRITEBATCH request.
type Batch struct {
	entries []wire.BatchEntry
}

// Put queues a key/value write. The slices are retained until Apply.
func (b *Batch) Put(key, value []byte) {
	b.entries = append(b.entries, wire.BatchEntry{Key: key, Value: value})
}

// Delete queues a tombstone.
func (b *Batch) Delete(key []byte) {
	b.entries = append(b.entries, wire.BatchEntry{Delete: true, Key: key})
}

// Len returns the number of queued mutations.
func (b *Batch) Len() int { return len(b.entries) }

// Reset clears the batch for reuse.
func (b *Batch) Reset() { b.entries = b.entries[:0] }

// Apply sends the batch as one atomic write. Not retried.
func (c *Client) Apply(b *Batch) error {
	if b.Len() == 0 {
		return nil
	}
	st, body, err := c.roundTrip(wire.OpWriteBatch, wire.AppendWriteBatch(nil, b.entries))
	if err != nil {
		return err
	}
	c.noteWriteStatus(st)
	if st != wire.StatusOK {
		return statusErr(st, body)
	}
	return nil
}

// KV is one scan result entry. It is the wire type itself, so a
// scan reply decodes straight into the returned slice.
type KV = wire.KV

// Scan returns up to limit live entries with keys >= start.
// Idempotent: retried on connection failures.
func (c *Client) Scan(start []byte, limit int) ([]KV, error) {
	if limit < 0 {
		limit = 0
	}
	st, body, err := c.readRoundTrip(wire.OpScan, wire.AppendScan(nil, start, uint32(limit)))
	if err != nil {
		return nil, err
	}
	if st != wire.StatusOK {
		return nil, statusErr(st, body)
	}
	kvs, err := wire.DecodeScanReply(body)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConn, err)
	}
	return kvs, nil
}

// Stats fetches the server's STATS payload (engine stats, mode,
// degraded state, serving-layer counters) as raw JSON. Idempotent:
// retried on connection failures.
func (c *Client) Stats() (json.RawMessage, error) {
	st, body, err := c.readRoundTrip(wire.OpStats, nil)
	if err != nil {
		return nil, err
	}
	if st != wire.StatusOK {
		return nil, statusErr(st, body)
	}
	return json.RawMessage(body), nil
}
