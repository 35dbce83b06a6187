package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sealdb/internal/lsm"
	"sealdb/internal/wire"
)

// conn is one served connection: a reader goroutine decoding
// pipelined requests and a writer goroutine flushing responses, tied
// together by the out channel. Responses enter out in completion
// order, not request order.
type conn struct {
	id  uint64
	srv *Server
	nc  net.Conn
	br  *bufio.Reader

	// out carries completed responses to the writer; its capacity is
	// 2*MaxInflight so a send never blocks while the writer lives.
	out chan wire.Frame
	// inflight is the pipelining semaphore: one slot per unanswered
	// request. The reader blocks acquiring a slot, which stops frame
	// consumption and lets TCP flow control push back on the client.
	inflight chan struct{}
	// dead is closed when the writer is gone (write error or force
	// close); senders then drop their responses.
	dead      chan struct{}
	deadOnce  sync.Once
	closeOnce sync.Once

	// traced is set by the handshake when the client negotiated
	// wire.FeatureTrace: this connection's request ids are threaded
	// into the engine tracer. Written before any dispatch, read only
	// by the reader goroutine.
	traced bool

	// Connection stats, read by /debug/conns without locks.
	opened    time.Time
	remote    string
	requests  atomic.Int64
	bytesIn   atomic.Int64
	bytesOut  atomic.Int64
	pending   atomic.Int64
	handshook atomic.Bool
}

func newConn(s *Server, id uint64, nc net.Conn) *conn {
	return &conn{
		id:       id,
		srv:      s,
		nc:       nc,
		br:       bufio.NewReaderSize(nc, 64<<10),
		out:      make(chan wire.Frame, 2*s.cfg.maxInflight()),
		inflight: make(chan struct{}, s.cfg.maxInflight()),
		dead:     make(chan struct{}),
		opened:   time.Now(),
		remote:   nc.RemoteAddr().String(),
	}
}

// beginDrain kicks the reader out of its blocking read so the
// connection winds down; inflight requests still complete and flush.
func (c *conn) beginDrain() {
	if err := c.nc.SetReadDeadline(time.Now()); err != nil {
		c.forceClose()
	}
}

// forceClose abandons the connection immediately, dropping unflushed
// responses.
func (c *conn) forceClose() {
	c.markDead()
	c.closeOnce.Do(func() { c.nc.Close() })
}

// markDead records that the writer can no longer deliver responses.
func (c *conn) markDead() {
	c.deadOnce.Do(func() { close(c.dead) })
}

// send hands a response to the writer, dropping it if the writer is
// gone. Called from the reader goroutine and from commit callbacks.
func (c *conn) send(f wire.Frame) {
	select {
	case c.out <- f:
	case <-c.dead:
	}
}

// readLoop is the connection's reader half.
func (c *conn) readLoop() {
	defer c.srv.connWG.Done()
	defer c.teardown()

	if !c.handshake() {
		return
	}
	maxFrame := c.srv.cfg.maxFrame()
	for {
		f, err := wire.ReadFrame(c.br, maxFrame)
		if err != nil {
			// Oversized frames earn an explicit refusal before the
			// connection dies; everything else (EOF, deadline, reset)
			// ends the read loop silently.
			if errors.Is(err, wire.ErrFrameTooLarge) {
				c.send(wire.Reply(0, wire.StatusTooLarge, []byte(err.Error())))
			}
			return
		}
		n := int64(frameWireSize(&f))
		c.bytesIn.Add(n)
		c.srv.m.bytesIn.Add(n)
		c.requests.Add(1)
		c.srv.m.requests.Inc()

		// Acquire a pipeline slot; blocking here is the backpressure.
		c.inflight <- struct{}{}
		c.pending.Add(1)
		c.dispatch(&f)
	}
}

// release returns a pipeline slot.
func (c *conn) release() {
	c.pending.Add(-1)
	<-c.inflight
}

// dispatch routes one request frame. Reads run inline; writes go to
// the group committer with a callback that acks when the commit
// lands. The inflight slot is released when the response is enqueued.
func (c *conn) dispatch(f *wire.Frame) {
	switch f.Op {
	case wire.OpGet:
		c.doGet(f)
		c.release()
	case wire.OpScan:
		c.doScan(f)
		c.release()
	case wire.OpStats:
		c.doStats(f)
		c.release()
	case wire.OpPut, wire.OpDelete, wire.OpWriteBatch:
		if !c.enqueueWrite(f) {
			c.release()
		}
	case wire.OpHello:
		// A second hello is a protocol error, but a harmless one.
		c.send(wire.Reply(f.ReqID, wire.StatusBadRequest, []byte("server: duplicate handshake")))
		c.release()
	default:
		c.srv.m.badRequests.Inc()
		c.send(wire.Reply(f.ReqID, wire.StatusBadRequest, []byte("server: unknown opcode")))
		c.release()
	}
}

func (c *conn) doGet(f *wire.Frame) {
	key, err := wire.DecodeGet(f.Payload)
	if err != nil {
		c.srv.m.badRequests.Inc()
		c.send(wire.Reply(f.ReqID, wire.StatusBadRequest, []byte(err.Error())))
		return
	}
	start := time.Now()
	var ctx lsm.OpContext
	if c.traced {
		ctx.ReqID = f.ReqID
	}
	v, err := c.srv.db.GetCtx(key, ctx)
	c.srv.m.getLatency.Observe(time.Since(start).Nanoseconds())
	if err != nil {
		c.send(errReply(f.ReqID, err))
		return
	}
	c.send(wire.Reply(f.ReqID, wire.StatusOK, v))
}

func (c *conn) doScan(f *wire.Frame) {
	start, limit, err := wire.DecodeScan(f.Payload)
	if err != nil {
		c.srv.m.badRequests.Inc()
		c.send(wire.Reply(f.ReqID, wire.StatusBadRequest, []byte(err.Error())))
		return
	}
	t0 := time.Now()
	kvs, err := c.srv.db.Scan(start, int(limit))
	c.srv.m.scanLatency.Observe(time.Since(t0).Nanoseconds())
	if err != nil {
		c.send(errReply(f.ReqID, err))
		return
	}
	// Size the reply exactly and encode it, status byte first, into
	// one buffer. A reply larger than the frame limit is refused
	// instead of sent: a client reading with the same limit would
	// drop the whole connection over it.
	n := 1 + wire.ScanReplySize(kvs)
	if max := wire.MaxPayload(c.srv.cfg.maxFrame()); n > max {
		c.send(wire.Reply(f.ReqID, wire.StatusTooLarge,
			fmt.Appendf(nil, "server: scan reply of %d bytes exceeds the %d-byte frame payload limit", n, max)))
		return
	}
	p := append(make([]byte, 0, n), byte(wire.StatusOK))
	c.send(wire.Frame{Op: wire.OpReply, ReqID: f.ReqID, Payload: wire.AppendScanReply(p, kvs)})
}

func (c *conn) doStats(f *wire.Frame) {
	body, err := json.Marshal(c.srv.stats())
	if err != nil {
		c.send(errReply(f.ReqID, err))
		return
	}
	c.send(wire.Reply(f.ReqID, wire.StatusOK, body))
}

// enqueueWrite validates a write request and hands it to the group
// committer. Returns false when the request was rejected inline (the
// caller then releases the slot); on success the commit callback owns
// the slot.
func (c *conn) enqueueWrite(f *wire.Frame) bool {
	var entries []wire.BatchEntry
	switch f.Op {
	case wire.OpPut:
		key, value, err := wire.DecodePut(f.Payload)
		if err != nil {
			c.srv.m.badRequests.Inc()
			c.send(wire.Reply(f.ReqID, wire.StatusBadRequest, []byte(err.Error())))
			return false
		}
		entries = []wire.BatchEntry{{Key: key, Value: value}}
	case wire.OpDelete:
		key, err := wire.DecodeDelete(f.Payload)
		if err != nil {
			c.srv.m.badRequests.Inc()
			c.send(wire.Reply(f.ReqID, wire.StatusBadRequest, []byte(err.Error())))
			return false
		}
		entries = []wire.BatchEntry{{Delete: true, Key: key}}
	case wire.OpWriteBatch:
		var err error
		entries, err = wire.DecodeWriteBatch(f.Payload)
		if err != nil {
			c.srv.m.badRequests.Inc()
			c.send(wire.Reply(f.ReqID, wire.StatusBadRequest, []byte(err.Error())))
			return false
		}
		if len(entries) == 0 {
			c.send(wire.Reply(f.ReqID, wire.StatusOK, nil))
			return false
		}
	}
	reqID := f.ReqID
	req := &commitReq{
		entries: entries,
		start:   time.Now(),
		traced:  c.traced,
		reqID:   reqID,
		done: func(err error) {
			if err != nil {
				c.send(errReply(reqID, err))
			} else {
				c.send(wire.Reply(reqID, wire.StatusOK, nil))
			}
			c.release()
		},
	}
	select {
	case c.srv.commitCh <- req:
		return true
	case <-c.srv.commitStop:
		c.send(wire.Reply(reqID, wire.StatusUnavailable, []byte("server: shutting down")))
		return false
	}
}

// handshake performs the version/feature exchange. The client's first
// frame must be a valid hello within the handshake timeout.
func (c *conn) handshake() bool {
	if err := c.nc.SetReadDeadline(time.Now().Add(c.srv.cfg.handshakeTimeout())); err != nil {
		return false
	}
	f, err := wire.ReadFrame(c.br, 1024)
	if err != nil {
		c.srv.m.handshakeFails.Inc()
		return false
	}
	refuse := func(st wire.Status, msg string) bool {
		c.srv.m.handshakeFails.Inc()
		c.send(wire.Reply(f.ReqID, st, []byte(msg)))
		return false
	}
	if f.Op != wire.OpHello {
		return refuse(wire.StatusBadRequest, "server: expected HELLO")
	}
	h, err := wire.DecodeHello(f.Payload)
	if err != nil {
		return refuse(wire.StatusBadRequest, err.Error())
	}
	if h.Magic != wire.Magic {
		return refuse(wire.StatusBadRequest, "server: bad protocol magic")
	}
	if h.Version != wire.Version {
		return refuse(wire.StatusUnavailable, "server: unsupported protocol version")
	}
	if err := c.nc.SetReadDeadline(time.Time{}); err != nil {
		return false
	}
	reply := wire.Hello{
		Magic:    wire.Magic,
		Version:  wire.Version,
		Features: h.Features & (wire.FeaturePipeline | wire.FeatureCoalesce | wire.FeatureTrace),
	}
	if reply.Features&wire.FeatureTrace != 0 {
		// Tracing is engine-global and sticky for the server's
		// lifetime: one traced client turns the tracer on for
		// everyone (untraced connections' ops are simply anonymous).
		c.traced = true
		c.srv.db.SetTracing(true)
	}
	c.send(wire.Reply(f.ReqID, wire.StatusOK, wire.AppendHello(nil, reply)))
	c.handshook.Store(true)
	return true
}

// teardown runs when the reader exits: it waits for every outstanding
// request to complete (their acks flow through the writer), then
// closes the response channel so the writer flushes and exits, and
// finally closes the socket.
func (c *conn) teardown() {
	// Draining the semaphore to capacity means no commit callback can
	// still be pending.
	for i := 0; i < cap(c.inflight); i++ {
		c.inflight <- struct{}{}
	}
	close(c.out)
	c.srv.removeConn(c)
}

// writeLoop is the connection's writer half: it serializes response
// frames, batching flushes, each flush bounded by the slow-client
// write deadline.
func (c *conn) writeLoop() {
	defer c.srv.connWG.Done()
	defer func() {
		c.markDead()
		c.closeOnce.Do(func() { c.nc.Close() })
	}()
	bw := bufio.NewWriterSize(c.nc, 64<<10)
	timeout := c.srv.cfg.writeTimeout()
	for f := range c.out {
		if err := c.nc.SetWriteDeadline(time.Now().Add(timeout)); err != nil {
			return
		}
		if err := c.writeFrame(bw, &f); err != nil {
			c.srv.m.connErrors.Inc()
			return
		}
		// Opportunistically coalesce queued responses into one flush.
	drain:
		for {
			select {
			case f2, ok := <-c.out:
				if !ok {
					break drain
				}
				if err := c.writeFrame(bw, &f2); err != nil {
					c.srv.m.connErrors.Inc()
					return
				}
			default:
				break drain
			}
		}
		if err := bw.Flush(); err != nil {
			c.srv.m.connErrors.Inc()
			return
		}
	}
	if err := bw.Flush(); err != nil {
		c.srv.m.connErrors.Inc()
	}
}

// writeFrame encodes one response and accounts its bytes.
func (c *conn) writeFrame(bw *bufio.Writer, f *wire.Frame) error {
	if err := wire.WriteFrame(bw, f); err != nil {
		return err
	}
	n := int64(frameWireSize(f))
	c.bytesOut.Add(n)
	c.srv.m.bytesOut.Add(n)
	return nil
}

// frameWireSize is the on-wire size of a frame.
func frameWireSize(f *wire.Frame) int { return 4 + 1 + 8 + len(f.Payload) }
