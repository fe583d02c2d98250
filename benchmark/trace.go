package main

import (
	"bufio"
	"encoding/json"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mead/internal/giop"
)

// span is one timed call the benchmark made into a layer. Spans of one
// invocation share Trace; Parent names the span that caused this one (0 for
// a root). Times are nanoseconds since the tracer's epoch.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// selfTime is the parent's duration minus the part of its interval that its
// children cover. Overlapping children count once, and any part of a child
// outside the parent's interval is ignored.
func selfTime(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := c.Start, c.End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, curLo, curHi int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			if v.hi > curHi {
				curHi = v.hi
			}
		default:
			covered += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		covered += curHi - curLo
	}
	return parent.dur() - covered
}

// maxKeptSpans bounds the spans held for the trace file; statistics are
// folded per invocation as it ends, so they cover every span regardless.
const maxKeptSpans = 100_000

// tracer keeps spans in memory and writes them when the run ends.
type tracer struct {
	epoch  time.Time
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64    { return int64(time.Since(t.epoch)) }
func (t *tracer) newID() uint64 { return t.nextID.Add(1) }

func (t *tracer) keep(ss ...span) {
	t.mu.Lock()
	for _, s := range ss {
		if len(t.spans) < maxKeptSpans {
			t.spans = append(t.spans, s)
		}
	}
	t.mu.Unlock()
}

// timed records a root span around fn.
func (t *tracer) timed(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	id := t.newID()
	start := t.now()
	fn()
	t.keep(span{Trace: id, ID: id, Name: name, Start: start, End: t.now()})
}

// write dumps the kept spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			_ = f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// invSlot links one caller's current invocation to the wire spans that the
// connection wrappers observe for it.
type invSlot struct {
	inv   atomic.Uint64 // trace id of the invocation in progress
	mu    sync.Mutex
	wires []span
}

func (s *invSlot) begin(id uint64) {
	s.mu.Lock()
	s.wires = s.wires[:0]
	s.mu.Unlock()
	s.inv.Store(id)
}

// end closes the invocation and returns its wire spans.
func (s *invSlot) end() []span {
	s.inv.Store(0)
	s.mu.Lock()
	out := append([]span(nil), s.wires...)
	s.mu.Unlock()
	return out
}

func (s *invSlot) addWire(sp span) {
	s.mu.Lock()
	if s.inv.Load() == sp.Trace {
		s.wires = append(s.wires, sp)
	}
	s.mu.Unlock()
}

// wireStats counts the client transport's traffic in a traced run. It is
// installed as the client's dialer (client.Config.Dial / orb.WithDialer),
// so every connection the client opens, including MEAD redirections,
// passes through it. It also pairs each GIOP Request with its Reply by
// request id to time the wire span of every invocation.
type wireStats struct {
	writes, reads     atomic.Int64
	bytesOut, bytesIn atomic.Int64
	conns             atomic.Int64
	tr                *tracer
	route             func(clientID string) *invSlot
	wireMu            sync.Mutex
	wireNS            []int64 // every completed wire span
}

func (w *wireStats) dial(network, addr string, timeout time.Duration) (net.Conn, error) {
	c, err := net.DialTimeout(network, addr, timeout)
	if err != nil {
		return nil, err
	}
	w.conns.Add(1)
	return &wireConn{Conn: c, st: w, pending: make(map[uint32]pendingReq)}, nil
}

type pendingReq struct {
	slot  *invSlot
	trace uint64
	start int64
}

// wireConn is the counting, pairing connection wrapper.
type wireConn struct {
	net.Conn
	st *wireStats

	wmu     sync.Mutex
	wbuf    []byte
	pmu     sync.Mutex
	pending map[uint32]pendingReq
	rmu     sync.Mutex
	rbuf    []byte
	broken  atomic.Bool // stream no longer parseable: count, do not pair
}

func (c *wireConn) Write(b []byte) (int, error) {
	start := c.st.tr.now()
	n, err := c.Conn.Write(b)
	c.st.writes.Add(1)
	c.st.bytesOut.Add(int64(n))
	if n > 0 && !c.broken.Load() {
		c.wmu.Lock()
		c.wbuf = append(c.wbuf, b[:n]...)
		c.wbuf = c.frames(c.wbuf, func(frame []byte) { c.sent(frame, start) })
		c.wmu.Unlock()
	}
	return n, err
}

func (c *wireConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.st.reads.Add(1)
	c.st.bytesIn.Add(int64(n))
	if n > 0 && !c.broken.Load() {
		end := c.st.tr.now()
		c.rmu.Lock()
		c.rbuf = append(c.rbuf, b[:n]...)
		c.rbuf = c.frames(c.rbuf, func(frame []byte) { c.received(frame, end) })
		c.rmu.Unlock()
	}
	return n, err
}

// frames hands every complete GIOP or MEAD frame at the head of buf to fn
// and returns the unconsumed tail.
func (c *wireConn) frames(buf []byte, fn func([]byte)) []byte {
	off := 0
	for {
		n, err := giop.WireFrameLen(buf[off:])
		if err != nil {
			c.broken.Store(true)
			return buf[:0]
		}
		if n == 0 {
			break
		}
		fn(buf[off : off+n])
		off += n
	}
	rest := copy(buf, buf[off:])
	return buf[:rest]
}

// sent notes an outgoing Request: its request id and the caller whose
// invocation it carries (read back from the at-most-once client id that
// every time_of_day request sends as its first argument).
func (c *wireConn) sent(frame []byte, start int64) {
	h, err := giop.ParseHeader(frame)
	if err != nil || h.Type != giop.MsgRequest {
		return
	}
	hdr, args, err := giop.DecodeRequest(h.Order, frame[giop.HeaderLen:])
	if err != nil {
		return
	}
	id, err := args.ReadString()
	args.Release()
	if err != nil {
		return
	}
	slot := c.st.route(id)
	if slot == nil {
		return
	}
	c.pmu.Lock()
	c.pending[hdr.RequestID] = pendingReq{slot: slot, trace: slot.inv.Load(), start: start}
	c.pmu.Unlock()
}

// received closes the wire span of the Reply's request.
func (c *wireConn) received(frame []byte, end int64) {
	h, err := giop.ParseHeader(frame)
	if err != nil || h.Type != giop.MsgReply { // MEAD frames carry no request id
		return
	}
	id, err := giop.ReplyIDOf(h.Order, frame[giop.HeaderLen:])
	if err != nil {
		return
	}
	c.pmu.Lock()
	p, ok := c.pending[id]
	delete(c.pending, id)
	c.pmu.Unlock()
	if !ok || p.trace == 0 {
		return
	}
	tr := c.st.tr
	sp := span{Trace: p.trace, ID: tr.newID(), Parent: p.trace, Name: "wire", Start: p.start, End: end}
	p.slot.addWire(sp)
	c.st.wireMu.Lock()
	c.st.wireNS = append(c.st.wireNS, sp.dur())
	c.st.wireMu.Unlock()
}
