// Package interceptor provides MEAD's transparent interception layer.
//
// The paper interposes on the eight UNIX socket calls (socket, accept,
// connect, listen, close, read, writev, select) via LD_PRELOAD library
// interpositioning, so that an *unmodified* ORB's GIOP byte stream can be
// observed, rewritten, and redirected underneath the application. Go has no
// symbol preloading, but the paper's interceptor uses those syscalls for
// exactly two capabilities, both of which this package reproduces at the
// same boundary (the transport under the ORB):
//
//   - read()/writev() interception -> frame-granular read/write hooks that
//     can consume, replace, or prepend whole GIOP/MEAD frames; and
//   - dup2()-based connection redirection -> SwapUnder, which atomically
//     repoints the byte stream at a different TCP connection while the ORB
//     keeps using the same net.Conn value ("the Interceptor opening a new
//     TCP socket ... and then using the UNIX dup2() call to close the
//     connection to the failing replica, and point the connection to the
//     new address").
//
// A Conn has two independent sides. Read runs on one goroutine at a time,
// and so do Write and WriteBuffers, but the two sides may run concurrently:
// a server connection is read by the ORB's per-connection loop while its
// connection writer flushes replies from the dispatch goroutines. Hooks on
// opposite sides that share state must synchronize it. Close and SwapUnder
// may be called concurrently with either side.
package interceptor

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"mead/internal/giop"
)

// Hooks are the interception points. Each hook runs on the goroutine
// calling Read (OnReadFrame, OnReadEOF) or Write/WriteBuffers
// (OnWriteFrame, OnWriteError); they may call SwapUnder.
type Hooks struct {
	// OnReadFrame observes each whole inbound frame (GIOP or MEAD) and
	// returns the bytes to surface to the ORB: f.Raw to pass it through,
	// nil to consume it silently, or substitute bytes (which must
	// themselves be whole frames). The frame aliases a per-connection
	// buffer that is recycled after the hook returns; retain copies, not
	// f.Raw/f.Body slices.
	OnReadFrame func(c *Conn, f giop.Frame) ([]byte, error)
	// OnWriteFrame observes each whole outbound frame once, in stream
	// order, and returns the bytes to put on the wire: f.Raw to pass
	// through, nil to suppress the frame, a replacement, or a replacement
	// with additional piggybacked frames. The returned bytes must stay
	// valid until the Write/WriteBuffers call returns: the call's whole
	// output is written after its last frame has passed through the hook.
	OnWriteFrame func(c *Conn, f giop.Frame) ([]byte, error)
	// OnReadEOF is consulted when the underlying transport fails mid-read
	// (EOF or reset — the paper's signature of an abrupt server failure).
	// It may repair the connection (SwapUnder) and return fabricated bytes
	// to surface plus resume=true; resume=false propagates the error. The
	// substitute bytes are surfaced to the ORB verbatim (they are not
	// re-parsed), so a hook that fabricates a truncated frame simply leaves
	// the ORB to detect the short stream itself.
	OnReadEOF func(c *Conn, err error) (substitute []byte, resume bool)
	// OnWriteError is consulted when writing a call's output to the
	// underlying transport fails with a stream-end error (reset or closed
	// pipe — the write-side signature of an abrupt peer failure). The hook
	// may repair the connection (SwapUnder) and return true, in which case
	// every frame whose bytes were not all written is rewritten once, in
	// full and in order, on the new transport (frames written in full are
	// not repeated); false propagates the error to the ORB.
	OnWriteError func(c *Conn, err error) (resume bool)
}

// ErrIntercepted reports a hook-initiated failure.
var ErrIntercepted = errors.New("interceptor: hook failed the operation")

// srcBufSize sizes the buffered reader over the transport; one buffer fill
// typically captures several small GIOP frames, collapsing the
// header-then-body read pairs into a single syscall.
const srcBufSize = 4096

// Conn is the frame-aware interposing connection. It implements net.Conn.
type Conn struct {
	hooks Hooks

	underMu sync.Mutex
	under   net.Conn
	closed  bool

	readBuf []byte // filtered bytes awaiting delivery to the ORB

	// Write side, owned by the one writer at a time (see WriteBuffers).
	writeBuf []byte      // outbound bytes not yet written: whole frames, then a partial one
	out      net.Buffers // this call's wire segments
	ends     []int       // output offset at the end of each input frame's result
	wv       net.Buffers // scratch copy of out for WriteTo, which consumes it

	// src buffers reads from the transport. It is owned exclusively by the
	// Read goroutine (SwapUnder only swaps `under`); when that goroutine
	// notices the transport changed it moves any read-ahead into carry —
	// those bytes were already delivered by the old replica — and rebuilds
	// src over the new transport.
	src     *bufio.Reader
	srcConn net.Conn // transport src currently wraps
	carry   []byte   // read-ahead preserved across SwapUnder

	// frameBuf is the reusable backing array for inbound frames
	// (giop.ReadFrameInto); each frame is copied into readBuf before the
	// next read, so recycling it is safe as long as hooks do not retain
	// f.Raw past their return (documented on Hooks).
	frameBuf []byte
}

var _ net.Conn = (*Conn)(nil)

// New wraps under with the given hooks.
func New(under net.Conn, hooks Hooks) *Conn {
	return &Conn{under: under, hooks: hooks}
}

// Under returns the current underlying connection.
func (c *Conn) Under() net.Conn {
	c.underMu.Lock()
	defer c.underMu.Unlock()
	return c.under
}

// SwapUnder atomically redirects the stream to newConn, closing the old
// transport — the dup2() equivalent. Any buffered inbound bytes are
// preserved (they were already delivered by the old replica). Swapping a
// connection that has already been Closed closes newConn instead of
// resurrecting the stream, so a hook-driven repair racing Close cannot leak
// the replacement transport.
func (c *Conn) SwapUnder(newConn net.Conn) {
	c.underMu.Lock()
	if c.closed {
		c.underMu.Unlock()
		if newConn != nil {
			_ = newConn.Close()
		}
		return
	}
	old := c.under
	c.under = newConn
	c.underMu.Unlock()
	if old != nil && old != newConn {
		_ = old.Close()
	}
}

// Close closes the current underlying transport.
func (c *Conn) Close() error {
	c.underMu.Lock()
	c.closed = true
	under := c.under
	c.underMu.Unlock()
	if under == nil {
		return nil
	}
	return under.Close()
}

func (c *Conn) isClosed() bool {
	c.underMu.Lock()
	defer c.underMu.Unlock()
	return c.closed
}

// srcReader adapts the Conn's buffered, swap-aware inbound byte source to
// io.Reader for the frame reader. Only the Read goroutine uses it.
type srcReader struct{ c *Conn }

func (r srcReader) Read(p []byte) (int, error) {
	c := r.c
	if len(c.carry) > 0 {
		n := copy(p, c.carry)
		c.carry = c.carry[n:]
		return n, nil
	}
	under := c.Under()
	if c.src == nil || c.srcConn != under {
		// Transport swapped underneath us (or first read). Preserve any
		// read-ahead from the old replica before rebuilding the buffer.
		if c.src != nil {
			if n := c.src.Buffered(); n > 0 {
				peeked, _ := c.src.Peek(n)
				c.carry = append(c.carry, peeked...)
			}
		}
		c.src = bufio.NewReaderSize(under, srcBufSize)
		c.srcConn = under
		if len(c.carry) > 0 {
			n := copy(p, c.carry)
			c.carry = c.carry[n:]
			return n, nil
		}
	}
	return c.src.Read(p)
}

// Read returns filtered stream bytes. It reads whole frames from the
// underlying transport, passes each through OnReadFrame, and serves the
// results; the ORB on top performs its usual header-then-body reads and
// never observes MEAD frames or suppressed messages.
func (c *Conn) Read(p []byte) (int, error) {
	for len(c.readBuf) == 0 {
		if c.isClosed() {
			return 0, net.ErrClosed
		}
		f, fb, err := giop.ReadFrameInto(srcReader{c}, c.frameBuf)
		c.frameBuf = fb
		if err != nil {
			if c.isClosed() {
				return 0, err
			}
			if isStreamEnd(err) && c.hooks.OnReadEOF != nil {
				if sub, resume := c.hooks.OnReadEOF(c, err); resume {
					c.readBuf = append(c.readBuf, sub...)
					continue
				}
			}
			return 0, err
		}
		out := f.Raw
		if c.hooks.OnReadFrame != nil {
			out, err = c.hooks.OnReadFrame(c, f)
			if err != nil {
				return 0, err
			}
		}
		c.readBuf = append(c.readBuf, out...)
	}
	n := copy(p, c.readBuf)
	c.readBuf = c.readBuf[n:]
	return n, nil
}

// Write is WriteBuffers with a one-segment vector.
func (c *Conn) Write(p []byte) (int, error) {
	if _, err := c.WriteBuffers(net.Buffers{p}); err != nil {
		return 0, err
	}
	return len(p), nil
}

// WriteBuffers is the vectored write, the writev() interposition point. It
// accumulates v until whole frames are available, passes each whole frame
// through OnWriteFrame once, in order, and puts the (possibly rewritten)
// result on the transport in one write: a run of pass-through frames stays
// one contiguous slice of the accumulation buffer, a rewritten frame
// becomes its own segment in place, and a suppressed frame is dropped. So
// a burst no hook rewrote leaves in one Write call on any transport, and a
// rewritten one in one writev on TCP. A trailing partial frame is held
// until a later call completes it.
//
// A corrupt or oversized frame header fails the call with the underlying
// typed error (ErrBadMagic, ErrBadVersion, giop.ErrTooLarge) instead of
// accumulating bytes forever waiting for a frame that can never complete:
// with valid headers the buffer is bounded by one maximum-size frame. The
// whole frames ahead of it (or ahead of a frame whose hook failed) are
// still written, and the rest of the call's bytes are discarded.
//
// WriteBuffers does not consume v. It must not run concurrently with
// another Write or WriteBuffers.
func (c *Conn) WriteBuffers(v net.Buffers) (int64, error) {
	var total int64
	for _, b := range v {
		c.writeBuf = append(c.writeBuf, b...)
		total += int64(len(b))
	}
	out, ends := c.out[:0], c.ends[:0]
	run, off, wire := 0, 0, 0 // pass-through run start, parse offset, output bytes
	var ferr error
	for {
		frameLen, err := peekFrameLen(c.writeBuf[off:])
		if err != nil {
			ferr = fmt.Errorf("interceptor: outbound stream corrupt: %w", err)
			break
		}
		if frameLen == 0 {
			break // wait for the rest of the frame
		}
		// The frame is parsed in place (capacity-capped so hook-side appends
		// cannot scribble on the remainder); hooks must not retain f.Raw
		// past their return — the buffer is reclaimed below.
		raw := c.writeBuf[off : off+frameLen : off+frameLen]
		f, err := parseFrame(raw)
		if err != nil {
			ferr = err
			break
		}
		res := raw
		if c.hooks.OnWriteFrame != nil {
			if res, err = c.hooks.OnWriteFrame(c, f); err != nil {
				ferr = err
				break
			}
		}
		if len(res) != len(raw) || &res[0] != &raw[0] {
			if off > run {
				out = append(out, c.writeBuf[run:off])
			}
			if len(res) != 0 {
				out = append(out, res)
			}
			run = off + frameLen
		}
		off += frameLen
		wire += len(res)
		ends = append(ends, wire)
	}
	if off > run {
		out = append(out, c.writeBuf[run:off])
	}
	var err error
	if len(out) > 0 {
		err = c.send(out, ends)
	}
	if ferr != nil {
		c.writeBuf = c.writeBuf[:0]
	} else {
		// Reclaim the processed frames: slide the remainder to the front so
		// the buffer never drifts through (and pins) its backing array.
		n := copy(c.writeBuf, c.writeBuf[off:])
		c.writeBuf = c.writeBuf[:n]
	}
	clear(out)
	c.out, c.ends = out[:0], ends[:0]
	if ferr != nil {
		return 0, ferr
	}
	if err != nil {
		return 0, err
	}
	return total, nil
}

// send puts one call's output on the transport in a single write. ends[i]
// is the output offset at which the i-th input frame's bytes (its
// OnWriteFrame result) end. A stream-end failure is offered to
// OnWriteError, which may repair the transport (SwapUnder) and resume; the
// frames whose bytes were not all written are then rewritten once, in full
// and in order, on the new transport. Frames already fully written are not
// repeated; a truncated one is safe to repeat, because the peer discards
// the partial frame when its end of the broken connection dies.
func (c *Conn) send(out net.Buffers, ends []int) error {
	n, err := c.writeOut(out)
	if err == nil {
		return nil
	}
	if c.isClosed() || !isStreamEnd(err) || c.hooks.OnWriteError == nil {
		return err
	}
	if !c.hooks.OnWriteError(c, err) {
		return err
	}
	done := 0 // output bytes of the frames written in full
	for _, end := range ends {
		if end > n {
			break
		}
		done = end
	}
	for len(out) > 0 && done >= len(out[0]) {
		done -= len(out[0])
		out = out[1:]
	}
	if len(out) == 0 {
		return nil
	}
	out[0] = out[0][done:]
	_, err = c.writeOut(out)
	return err
}

// writeOut writes out to the current transport: one Write for a single
// segment, otherwise net.Buffers.WriteTo (one writev on TCP) on a scratch
// copy of out, since WriteTo consumes its receiver.
func (c *Conn) writeOut(out net.Buffers) (int, error) {
	under := c.Under()
	if len(out) == 1 {
		return under.Write(out[0])
	}
	wv := append(c.wv[:0], out...)
	c.wv = wv
	n, err := c.wv.WriteTo(under)
	clear(wv)
	c.wv = wv[:0]
	return int(n), err
}

// LocalAddr returns the current transport's local address.
func (c *Conn) LocalAddr() net.Addr { return c.Under().LocalAddr() }

// RemoteAddr returns the current transport's remote address.
func (c *Conn) RemoteAddr() net.Addr { return c.Under().RemoteAddr() }

// SetDeadline sets deadlines on the current transport.
func (c *Conn) SetDeadline(t time.Time) error { return c.Under().SetDeadline(t) }

// SetReadDeadline sets the read deadline on the current transport.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.Under().SetReadDeadline(t) }

// SetWriteDeadline sets the write deadline on the current transport.
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.Under().SetWriteDeadline(t) }

// isStreamEnd reports whether err looks like the peer vanishing (EOF,
// reset, or closed pipe) as opposed to a protocol error.
func isStreamEnd(err error) bool {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return !ne.Timeout()
	}
	// syscall-level resets arrive as *net.OpError wrapping ECONNRESET.
	var oe *net.OpError
	return errors.As(err, &oe)
}

// peekFrameLen reports the total length of the frame at the head of buf.
// (0, nil) means the frame is incomplete — wait for more bytes. A non-nil
// error means the head of the stream can never become a valid frame
// (bad magic/version, or a length prefix over giop.MaxMessageSize).
func peekFrameLen(buf []byte) (int, error) {
	return giop.WireFrameLen(buf)
}

// parseFrame decodes a complete raw frame.
func parseFrame(raw []byte) (giop.Frame, error) {
	switch string(raw[:4]) {
	case giop.Magic:
		h, err := giop.ParseHeader(raw[:giop.HeaderLen])
		if err != nil {
			return giop.Frame{}, err
		}
		return giop.Frame{Kind: giop.FrameGIOP, Header: h, Raw: raw}, nil
	case giop.MeadMagic:
		t, _, err := giop.ParseMeadHeader(raw[:giop.MeadHeaderLen])
		if err != nil {
			return giop.Frame{}, err
		}
		return giop.Frame{
			Kind: giop.FrameMEAD,
			Mead: giop.MeadMessage{Type: t, Payload: raw[giop.MeadHeaderLen:]},
			Raw:  raw,
		}, nil
	default:
		return giop.Frame{}, giop.ErrBadMagic
	}
}
