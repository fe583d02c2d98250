package orb

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mead/internal/cdr"
	"mead/internal/giop"
	"mead/internal/netfault"
)

// TestWriterBatchesConcurrentFrames pins down the batch-emission protocol
// deterministically: with the flush held open (an artificial pending
// writer), queued messages accumulate; the writer that drops pending to
// zero flushes them all as ONE giop.MsgBatch frame.
func TestWriterBatchesConcurrentFrames(t *testing.T) {
	srv, cli := net.Pipe()
	defer srv.Close()
	defer cli.Close()

	w := newConnWriter(cli, cdr.BigEndian, true)
	req := func(id uint32) *cdr.Encoder {
		return giop.EncodeRequestPooled(cdr.BigEndian, giop.RequestHeader{
			RequestID: id, ResponseExpected: true, ObjectKey: []byte("k"), Operation: "echo",
		}, nil)
	}

	type read struct {
		h   giop.Header
		mb  *giop.MsgBuf
		err error
	}
	reads := make(chan read, 4)
	go func() {
		for i := 0; i < 2; i++ {
			h, mb, err := giop.ReadMessagePooled(srv)
			reads <- read{h, mb, err}
		}
	}()

	w.pending.Add(1) // hold the flush open, as a mid-write concurrent caller would
	if err := w.writeEncoder(req(1), 0); err != nil {
		t.Fatal(err)
	}
	if err := w.writeEncoder(req(2), 0); err != nil {
		t.Fatal(err)
	}
	w.pending.Add(-1)
	// The next writer leaves last and flushes all three messages together.
	if err := w.writeEncoder(req(3), 0); err != nil {
		t.Fatal(err)
	}

	r := <-reads
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.h.Type != giop.MsgBatch {
		t.Fatalf("frame type = %v, want Batch", r.h.Type)
	}
	var ids []uint32
	err := giop.ForEachInBatch(r.mb.Bytes(), func(sh giop.Header, body []byte) error {
		hdr, d, err := giop.DecodeRequest(sh.Order, body)
		if err != nil {
			return err
		}
		d.Release()
		ids = append(ids, hdr.RequestID)
		return nil
	})
	r.mb.Release()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 || ids[0] != 1 || ids[1] != 2 || ids[2] != 3 {
		t.Fatalf("batched request ids = %v, want [1 2 3]", ids)
	}
	if got := w.batches.Load(); got != 1 {
		t.Fatalf("batches emitted = %d, want 1", got)
	}

	// A lone message flushes as a plain Request frame, not a 1-element batch.
	if err := w.writeEncoder(req(4), 0); err != nil {
		t.Fatal(err)
	}
	r = <-reads
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.h.Type != giop.MsgRequest {
		t.Fatalf("lone frame type = %v, want Request", r.h.Type)
	}
	r.mb.Release()
}

// TestServerDecodesBatchFrame drives a handcrafted batch frame into the
// server over a raw socket and expects one independent reply per
// sub-request — the server half of the batching contract, deterministic
// regardless of client flush timing.
// vecConn is a connection with its own vectored write, as an
// interceptor.Conn has. It records the calls instead of writing.
type vecConn struct {
	net.Conn
	writes  int   // Write calls
	vectors []int // segments per WriteBuffers call
}

func (c *vecConn) Write(p []byte) (int, error) { c.writes++; return len(p), nil }

func (c *vecConn) WriteBuffers(v net.Buffers) (int64, error) {
	c.vectors = append(c.vectors, len(v))
	var n int64
	for _, b := range v {
		n += int64(len(b))
	}
	return n, nil
}

// TestWriterFlushesThroughWriteBuffers: a connection with its own
// WriteBuffers receives a whole flush in that one call, not one Write per
// queued message.
func TestWriterFlushesThroughWriteBuffers(t *testing.T) {
	c := &vecConn{}
	w := newConnWriter(c, cdr.BigEndian, false)
	reply := func(id uint32) []byte {
		return giop.EncodeReply(cdr.BigEndian, giop.ReplyHeader{RequestID: id}, nil)
	}
	w.pending.Add(1) // hold the flush open, as a mid-write concurrent caller would
	for id := uint32(1); id <= 2; id++ {
		if err := w.writeMessage(reply(id), 0); err != nil {
			t.Fatal(err)
		}
	}
	w.pending.Add(-1)
	if err := w.writeMessage(reply(3), 0); err != nil {
		t.Fatal(err)
	}
	if c.writes != 0 || len(c.vectors) != 1 || c.vectors[0] != 3 {
		t.Fatalf("transport saw %d Writes and vectors %v; want 0 and [3]", c.writes, c.vectors)
	}
}

func TestServerDecodesBatchFrame(t *testing.T) {
	s, _ := startServer(t)
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const n = 3
	var body []byte
	for i := uint32(1); i <= n; i++ {
		body = append(body, giop.EncodeRequest(cdr.BigEndian, giop.RequestHeader{
			RequestID: i, ResponseExpected: true, ObjectKey: clockKey, Operation: "echo",
		}, func(e *cdr.Encoder) { e.WriteString(fmt.Sprintf("batched-%d", i)) })...)
	}
	frame := make([]byte, giop.HeaderLen+len(body))
	giop.PutBatchHeader(frame, cdr.BigEndian, len(body))
	copy(frame[giop.HeaderLen:], body)
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}

	got := map[uint32]string{}
	for i := 0; i < n; i++ {
		h, rbody, err := giop.ReadMessage(conn)
		if err != nil {
			t.Fatal(err)
		}
		if h.Type != giop.MsgReply {
			t.Fatalf("reply %d: type = %v", i, h.Type)
		}
		rh, d, err := giop.DecodeReply(h.Order, rbody)
		if err != nil {
			t.Fatal(err)
		}
		if rh.Status != giop.ReplyNoException {
			t.Fatalf("reply %d: status = %v", i, rh.Status)
		}
		v, err := d.ReadString()
		d.Release()
		if err != nil {
			t.Fatal(err)
		}
		got[rh.RequestID] = v
	}
	for i := uint32(1); i <= n; i++ {
		if want := fmt.Sprintf("batched-%d", i); got[i] != want {
			t.Fatalf("reply for request %d = %q, want %q", i, got[i], want)
		}
	}
	if served := s.Served(); served != n {
		t.Fatalf("served = %d, want %d", served, n)
	}
}

// TestPooledBatchingEndToEnd hammers a batching striped pool from many
// concurrent callers; every echo must come back byte-identical, proving
// demultiplexing and reply routing survive batch coalescing (run under
// -race).
func TestPooledBatchingEndToEnd(t *testing.T) {
	const callers = 64
	const perCaller = 10

	s, _ := startServer(t)
	ior, err := s.IORFor(typeID, clockKey)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(WithPoolStripes(2), WithRequestBatching())
	defer c.Close()
	o := c.Object(ior)

	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < perCaller; k++ {
				want := fmt.Sprintf("caller-%d-call-%d", i, k)
				var got string
				err := o.Invoke("echo", func(e *cdr.Encoder) {
					e.WriteString(want)
				}, func(d *cdr.Decoder) error {
					v, err := d.ReadString()
					got = v
					return err
				})
				if err != nil {
					errs[i] = err
					return
				}
				if got != want {
					errs[i] = fmt.Errorf("call %d: got %q, want %q", k, got, want)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	if served := s.Served(); served != callers*perCaller {
		t.Fatalf("served = %d, want %d", served, callers*perCaller)
	}
}

// TestStripedPoolSpreadsStripes asserts a concurrent burst brings every
// stripe up (the pool's first-touch round-robin) and that both sides agree
// on the connection count afterwards.
func TestStripedPoolSpreadsStripes(t *testing.T) {
	const stripes = 4
	s, _ := startServer(t)
	ior, err := s.IORFor(typeID, clockKey)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(WithPoolStripes(stripes))
	defer c.Close()
	o := c.Object(ior)

	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := invokeTime(o); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := c.PooledConnections(); got != stripes {
		t.Fatalf("client pools %d connections, want %d", got, stripes)
	}
	if got := s.ActiveConnections(); got != stripes {
		t.Fatalf("server sees %d connections, want %d", got, stripes)
	}
}

// TestStripedPoolFailSettlesOnlyThatStripe kills one stripe while both
// stripes hold an in-flight request: the dead stripe's caller observes
// COMM_FAILURE, the other stripe's caller keeps waiting undisturbed.
func TestStripedPoolFailSettlesOnlyThatStripe(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { // swallow connections, never reply
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { _, _, _ = giop.ReadMessage(conn) }()
		}
	}()

	ior, err := giop.NewIORForAddr(typeID, ln.Addr().String(), clockKey)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(WithPoolStripes(2))
	defer c.Close()
	o := c.Object(ior)

	// First-touch round-robin places caller A on stripe 0, caller B on
	// stripe 1, deterministically.
	results := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := invokeTime(o)
			results <- err
		}()
		waitForStripes(t, c, ln.Addr().String(), i+1)
	}

	c.pool.mu.Lock()
	mc := c.pool.conns[ln.Addr().String()][0]
	c.pool.mu.Unlock()
	mc.fail(giop.CommFailure(10, giop.CompletedMaybe))

	select {
	case err := <-results:
		var se *giop.SystemException
		if !errors.As(err, &se) || se.RepoID != giop.RepoCommFailure {
			t.Fatalf("failed stripe's caller got %v, want COMM_FAILURE", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("failed stripe's caller still blocked")
	}
	select {
	case err := <-results:
		t.Fatalf("other stripe's caller settled too (%v); stripes are not isolated", err)
	case <-time.After(100 * time.Millisecond):
	}
	if got := c.PooledConnections(); got != 1 {
		t.Fatalf("pooled connections after stripe death = %d, want 1", got)
	}
	_ = c.Close() // settles the surviving caller
	<-results
}

// waitForStripes polls until n stripes to addr each carry at least one
// in-flight request.
func waitForStripes(t *testing.T, c *ClientORB, addr string, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		live := 0
		c.pool.mu.Lock()
		for _, mc := range c.pool.conns[addr] {
			if mc != nil && mc.inflight.Load() > 0 {
				live++
			}
		}
		c.pool.mu.Unlock()
		if live >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("stripes with in-flight requests never reached %d", n)
}

// TestStripedPoolStripeCutChaos runs the netfault plan the satellite task
// asks for: mid-burst, one stripe's connection is cut right after a request
// (and one reply is wire-duplicated earlier, exercising the stale-reply
// skip). Callers riding the cut stripe settle with COMM_FAILURE, everyone
// else keeps getting byte-correct echoes, and the pool redials back to full
// width afterwards. Run under -race.
func TestStripedPoolStripeCutChaos(t *testing.T) {
	const stripes = 4
	const callers = 64
	const perCaller = 5

	s, _ := startServer(t)
	addr := s.Addr()
	inj, err := netfault.NewInjector(7, netfault.Plan{
		{Kind: netfault.DuplicateReply, At: 20, Addr: addr},
		{Kind: netfault.CutAfterRequest, At: 150, Addr: addr},
	})
	if err != nil {
		t.Fatal(err)
	}
	ior, err := giop.NewIORForAddr(typeID, addr, clockKey)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(WithPoolStripes(stripes), WithDialer(inj.DialTimeout))
	defer c.Close()
	o := c.Object(ior)

	var wg sync.WaitGroup
	var failures, successes atomic.Int64
	errCh := make(chan error, callers*perCaller)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < perCaller; k++ {
				want := fmt.Sprintf("chaos-%d-%d", i, k)
				var got string
				err := o.Invoke("echo", func(e *cdr.Encoder) {
					e.WriteString(want)
				}, func(d *cdr.Decoder) error {
					v, err := d.ReadString()
					got = v
					return err
				})
				switch {
				case err == nil && got == want:
					successes.Add(1)
				case err == nil:
					errCh <- fmt.Errorf("caller %d call %d: cross-wired reply %q != %q", i, k, got, want)
				default:
					var se *giop.SystemException
					if !errors.As(err, &se) || se.RepoID != giop.RepoCommFailure {
						errCh <- fmt.Errorf("caller %d call %d: %v (want COMM_FAILURE)", i, k, err)
					}
					failures.Add(1)
				}
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}
	if inj.FiredTotal("cut-after-request") == 0 {
		t.Fatal("chaos plan never fired the stripe cut")
	}
	if f := failures.Load(); f == 0 {
		t.Fatal("no caller observed the stripe cut")
	}
	if got, want := successes.Load()+failures.Load(), int64(callers*perCaller); got != want {
		t.Fatalf("accounted invocations = %d, want %d", got, want)
	}
	// Surviving stripes carried traffic through the cut: far more calls
	// succeeded than one stripe alone could have settled as failures.
	if successes.Load() <= failures.Load() {
		t.Fatalf("successes (%d) <= failures (%d); other stripes did not keep carrying traffic",
			successes.Load(), failures.Load())
	}

	// The pool recovers to full width: the dead slot redials on demand.
	var wg2 sync.WaitGroup
	for i := 0; i < 2*stripes; i++ {
		wg2.Add(1)
		go func() {
			defer wg2.Done()
			if _, err := invokeTime(o); err != nil {
				t.Error(err)
			}
		}()
	}
	wg2.Wait()
	if got := c.PooledConnections(); got != stripes {
		t.Fatalf("pooled connections after recovery = %d, want %d", got, stripes)
	}
}

// TestServerAcceptSharding smoke-tests the sharded accept path: several
// accept goroutines on one listener admit concurrent clients correctly.
func TestServerAcceptSharding(t *testing.T) {
	s, _ := startServer(t, WithServerAcceptLoops(4))
	ior, err := s.IORFor(typeID, clockKey)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := NewClient()
			o := c.Object(ior)
			defer o.Close()
			if _, err := invokeTime(o); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}
