package interceptor

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"testing"

	"mead/internal/giop"
)

// recConn is a transport that records every Write call. After limit bytes
// (when limit >= 0) it accepts no more and fails the write with a
// stream-end error, as a connection reset by the peer would.
type recConn struct {
	net.Conn // unused; recConn implements only what Conn calls
	writes   [][]byte
	limit    int
	closed   bool
}

func newRecConn() *recConn { return &recConn{limit: -1} }

func (r *recConn) Write(p []byte) (int, error) {
	n := len(p)
	var err error
	if r.limit >= 0 {
		if n > r.limit {
			n, err = r.limit, fmt.Errorf("write: %w", net.ErrClosed)
		}
		r.limit -= n
	}
	r.writes = append(r.writes, append([]byte(nil), p[:n]...))
	return n, err
}

func (r *recConn) Close() error { r.closed = true; return nil }

// stream is everything written, in order.
func (r *recConn) stream() []byte { return bytes.Join(r.writes, nil) }

// frameIDs parses a wire stream into the request id of each GIOP
// Request (or reply id of each Reply), with -1 for a MEAD frame.
func frameIDs(t *testing.T, wire []byte) []int {
	t.Helper()
	var ids []int
	for len(wire) > 0 {
		n, err := giop.WireFrameLen(wire)
		if err != nil || n == 0 {
			t.Fatalf("wire stream does not frame: %d trailing bytes, %v", len(wire), err)
		}
		f, err := parseFrame(wire[:n])
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, frameID(t, f))
		wire = wire[n:]
	}
	return ids
}

func frameID(t *testing.T, f giop.Frame) int {
	t.Helper()
	if f.Kind == giop.FrameMEAD {
		return -1
	}
	var (
		id  uint32
		err error
	)
	if f.Header.Type == giop.MsgReply {
		id, err = giop.ReplyIDOf(f.Header.Order, f.Body())
	} else {
		id, err = giop.RequestIDOf(f.Header.Order, f.Body())
	}
	if err != nil {
		t.Fatal(err)
	}
	return int(id)
}

// burst is n request frames with ids 1..n, concatenated.
func burst(n int) []byte {
	var b []byte
	for id := 1; id <= n; id++ {
		b = append(b, requestFrame(uint32(id), "op")...)
	}
	return b
}

// chop splits b into a vector whose segment boundaries fall inside frame
// headers and bodies, not only between frames.
func chop(b []byte, sizes ...int) net.Buffers {
	var v net.Buffers
	for _, n := range sizes {
		if n > len(b) {
			n = len(b)
		}
		v = append(v, b[:n])
		b = b[n:]
	}
	if len(b) > 0 {
		v = append(v, b)
	}
	return v
}

func wantIDs(t *testing.T, got []int, want ...int) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("frames = %v, want %v", got, want)
	}
}

// TestWriteBuffersPassThroughOneWrite: a vector of whole pass-through
// frames, however it is segmented, reaches the transport in one Write.
func TestWriteBuffersPassThroughOneWrite(t *testing.T) {
	rec := newRecConn()
	ic := New(rec, Hooks{
		OnWriteFrame: func(c *Conn, f giop.Frame) ([]byte, error) { return f.Raw, nil },
	})
	b := burst(8)
	n, err := ic.WriteBuffers(chop(b, 5, 30, 7, 100))
	if err != nil || n != int64(len(b)) {
		t.Fatalf("WriteBuffers = %d, %v; want %d, nil", n, err, len(b))
	}
	if len(rec.writes) != 1 {
		t.Fatalf("transport saw %d writes, want 1", len(rec.writes))
	}
	if !bytes.Equal(rec.stream(), b) {
		t.Fatal("pass-through burst altered on the wire")
	}
}

// TestWriteBuffersHooksSeeEachFrameOnce: across calls, and with frames
// split between calls, OnWriteFrame sees every frame exactly once, in
// stream order.
func TestWriteBuffersHooksSeeEachFrameOnce(t *testing.T) {
	rec := newRecConn()
	var seen []int
	ic := New(rec, Hooks{
		OnWriteFrame: func(c *Conn, f giop.Frame) ([]byte, error) {
			seen = append(seen, frameID(t, f))
			return f.Raw, nil
		},
	})
	b := burst(9)
	cut1, cut2 := len(b)/3+3, 2*len(b)/3+1
	for _, v := range []net.Buffers{chop(b[:cut1], 4, 20), chop(b[cut1:cut2], 11), {b[cut2:]}} {
		if _, err := ic.WriteBuffers(v); err != nil {
			t.Fatal(err)
		}
	}
	wantIDs(t, seen, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	wantIDs(t, frameIDs(t, rec.stream()), 1, 2, 3, 4, 5, 6, 7, 8, 9)
}

// TestWriteBuffersRewritesLandInOrder: a replaced frame, a suppressed frame
// and a piggybacked frame each take their frame's place in the output.
func TestWriteBuffersRewritesLandInOrder(t *testing.T) {
	rec := newRecConn()
	mead := giop.EncodeMead(giop.MeadFailover, []byte("to"))
	ic := New(rec, Hooks{
		OnWriteFrame: func(c *Conn, f giop.Frame) ([]byte, error) {
			switch frameID(t, f) {
			case 2:
				return replyFrame(99), nil
			case 4:
				return nil, nil
			case 5:
				return append(append([]byte(nil), mead...), f.Raw...), nil
			}
			return f.Raw, nil
		},
	})
	if _, err := ic.WriteBuffers(chop(burst(7), 13, 40)); err != nil {
		t.Fatal(err)
	}
	wantIDs(t, frameIDs(t, rec.stream()), 1, 99, 3, -1, 5, 6, 7)
	if len(ic.writeBuf) != 0 {
		t.Fatalf("writeBuf holds %d bytes after whole frames", len(ic.writeBuf))
	}
}

// TestWriteBuffersHoldsTrailingPartialFrame: the whole frames of a call go
// out at once; a partial last frame waits, unseen by the hook, until a
// later call completes it.
func TestWriteBuffersHoldsTrailingPartialFrame(t *testing.T) {
	rec := newRecConn()
	var seen []int
	ic := New(rec, Hooks{
		OnWriteFrame: func(c *Conn, f giop.Frame) ([]byte, error) {
			seen = append(seen, frameID(t, f))
			return f.Raw, nil
		},
	})
	b := burst(3)
	cut := len(b) - 9
	n, err := ic.WriteBuffers(chop(b[:cut], 10))
	if err != nil || n != int64(cut) {
		t.Fatalf("WriteBuffers = %d, %v; want %d, nil", n, err, cut)
	}
	wantIDs(t, seen, 1, 2)
	if len(rec.writes) != 1 {
		t.Fatalf("transport saw %d writes, want 1", len(rec.writes))
	}
	wantIDs(t, frameIDs(t, rec.stream()), 1, 2)
	if _, err := ic.WriteBuffers(net.Buffers{b[cut:]}); err != nil {
		t.Fatal(err)
	}
	wantIDs(t, seen, 1, 2, 3)
	wantIDs(t, frameIDs(t, rec.stream()), 1, 2, 3)
	if len(ic.writeBuf) != 0 {
		t.Fatalf("writeBuf holds %d bytes after the frame completed", len(ic.writeBuf))
	}
}

// TestWriteBuffersCorruptHeader: a frame header that can never frame fails
// the call with the typed error. The whole frames ahead of it are written;
// nothing after it is.
func TestWriteBuffersCorruptHeader(t *testing.T) {
	rec := newRecConn()
	ic := New(rec, Hooks{})
	junk := bytes.Repeat([]byte{'X'}, 64)
	_, err := ic.WriteBuffers(net.Buffers{burst(2), junk, requestFrame(3, "op")})
	if !errors.Is(err, giop.ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
	wantIDs(t, frameIDs(t, rec.stream()), 1, 2)
	if len(ic.writeBuf) != 0 {
		t.Fatalf("writeBuf retained %d bytes after a corrupt stream", len(ic.writeBuf))
	}
}

// TestWriteBuffersResumeResendsUnwritten: whatever byte the transport dies
// at, OnWriteError's repair re-sends exactly the frames not fully written —
// in full, in order, rewritten output included — and none of those before.
func TestWriteBuffersResumeResendsUnwritten(t *testing.T) {
	mead := giop.EncodeMead(giop.MeadFailover, []byte("to"))
	hooks := func(repl *recConn, repairs *int) Hooks {
		return Hooks{
			OnWriteFrame: func(c *Conn, f giop.Frame) ([]byte, error) {
				switch frameID(t, f) {
				case 2:
					return nil, nil
				case 4:
					return append(append([]byte(nil), mead...), f.Raw...), nil
				}
				return f.Raw, nil
			},
			OnWriteError: func(c *Conn, err error) bool {
				*repairs++
				c.SwapUnder(repl)
				return true
			},
		}
	}
	// Output units per input frame: 1, (2 suppressed), 3, MEAD+4, 5.
	units := [][]int{{1}, {3}, {-1, 4}, {5}}
	var unitEnds []int
	wire := 0
	for _, u := range units {
		for _, id := range u {
			if id == -1 {
				wire += len(mead)
			} else {
				wire += len(requestFrame(uint32(id), "op"))
			}
		}
		unitEnds = append(unitEnds, wire)
	}
	for limit := 0; limit < wire; limit++ {
		first, repl := newRecConn(), newRecConn()
		first.limit = limit
		var repairs int
		ic := New(first, hooks(repl, &repairs))
		if _, err := ic.WriteBuffers(chop(burst(5), 17)); err != nil {
			t.Fatalf("limit %d: recovered write: %v", limit, err)
		}
		if repairs != 1 {
			t.Fatalf("limit %d: repairs = %d, want 1", limit, repairs)
		}
		var want []int
		for i, u := range units {
			if unitEnds[i] > limit {
				want = append(want, u...)
			}
		}
		got := frameIDs(t, repl.stream())
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("limit %d: re-sent %v, want %v", limit, got, want)
		}
		if !first.closed {
			t.Fatalf("limit %d: failed transport left open", limit)
		}
	}
}
