package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mead/internal/cdr"
	"mead/internal/durable"
	"mead/internal/gcs"
	"mead/internal/giop"
	"mead/internal/orb"
	"mead/internal/replica"
)

// The ladder rungs time one layer alone through its public functions, on
// the shapes the workload sends. Each rung runs a few fixed batches and
// reports the median batch.

const (
	codecBatch   = 20_000
	ladderRounds = 5
)

// codecShapes are the workload's exact request and reply shapes.
type codecShapes struct {
	order   cdr.ByteOrder
	hdr     giop.RequestHeader
	client  string
	replica string
}

func newCodecShapes(service, clientID string) codecShapes {
	return codecShapes{
		order: cdr.BigEndian,
		hdr: giop.RequestHeader{
			RequestID:        7,
			ResponseExpected: true,
			ObjectKey:        giop.MakeObjectKey(service, replica.ObjectName),
			Operation:        "time_of_day",
		},
		client:  clientID,
		replica: "r1",
	}
}

func (c codecShapes) encodeRequest() *cdr.Encoder {
	return giop.EncodeRequestPooled(c.order, c.hdr, func(e *cdr.Encoder) {
		e.WriteString(c.client)
		e.WriteULongLong(42)
	})
}

func (c codecShapes) encodeReply() *cdr.Encoder {
	return giop.EncodeReplyPooled(c.order, giop.ReplyHeader{RequestID: 7, Status: giop.ReplyNoException},
		func(e *cdr.Encoder) {
			e.WriteLongLong(time.Now().UnixNano())
			e.WriteULongLong(42)
			e.WriteString(c.replica)
		})
}

// codecResult is the giop/cdr rung.
type codecResult struct {
	reqEnc, reqDec, repEnc, repDec float64 // ns per call
	allocsPerRoundTrip             float64
}

func codecLadder(sh codecShapes) (codecResult, error) {
	e := sh.encodeRequest()
	reqBody := append([]byte(nil), e.Bytes()[giop.HeaderLen:]...)
	e.Release()
	e = sh.encodeReply()
	repBody := append([]byte(nil), e.Bytes()[giop.HeaderLen:]...)
	e.Release()
	interner := cdr.NewInterner(1024)

	reqEnc := func() error { sh.encodeRequest().Release(); return nil }
	reqDec := func() error {
		_, d, err := giop.DecodeRequest(sh.order, reqBody)
		if err != nil {
			return err
		}
		if _, err := d.ReadStringIntern(interner); err != nil {
			return err
		}
		_, err = d.ReadULongLong()
		d.Release()
		return err
	}
	repEnc := func() error { sh.encodeReply().Release(); return nil }
	repDec := func() error {
		_, d, err := giop.DecodeReply(sh.order, repBody)
		if err != nil {
			return err
		}
		if _, err := d.ReadLongLong(); err != nil {
			return err
		}
		if _, err := d.ReadULongLong(); err != nil {
			return err
		}
		_, err = d.ReadString()
		d.Release()
		return err
	}
	var res codecResult
	var err error
	for _, r := range []struct {
		fn  func() error
		out *float64
	}{{reqEnc, &res.reqEnc}, {reqDec, &res.reqDec}, {repEnc, &res.repEnc}, {repDec, &res.repDec}} {
		if *r.out, err = nsPerCall(r.fn); err != nil {
			return res, err
		}
	}
	m0 := readMem()
	for i := 0; i < codecBatch; i++ {
		for _, fn := range []func() error{reqEnc, reqDec, repEnc, repDec} {
			if err := fn(); err != nil {
				return res, err
			}
		}
	}
	res.allocsPerRoundTrip = float64(readMem().mallocs-m0.mallocs) / codecBatch
	return res, nil
}

// nsPerCall times fn over ladderRounds batches and returns the median
// batch's nanoseconds per call.
func nsPerCall(fn func() error) (float64, error) {
	per := make([]float64, 0, ladderRounds)
	for r := 0; r < ladderRounds; r++ {
		start := time.Now()
		for i := 0; i < codecBatch; i++ {
			if err := fn(); err != nil {
				return 0, fmt.Errorf("codec rung: %w", err)
			}
		}
		per = append(per, float64(time.Since(start))/codecBatch)
	}
	return median(per), nil
}

// orbResult is the bare-ORB rung: no replication, no interceptor.
type orbResult struct {
	throughput float64 // ops/s
	cpuUSPerOp float64
}

// orbLadder runs 64 callers, each with its own reference on one pooled
// client ORB, against a bare ServerORB with a servant that reads the
// workload's arguments and answers with a timestamp.
func orbLadder(callers int, dur time.Duration) (orbResult, error) {
	key := giop.MakeObjectKey("bench", "clock")
	srv := orb.NewServer()
	srv.Register(key, orb.ServantFunc(func(op string, args *cdr.Decoder, result *cdr.Encoder) error {
		if _, err := args.ReadString(); err != nil {
			return err
		}
		if _, err := args.ReadULongLong(); err != nil {
			return err
		}
		result.WriteLongLong(time.Now().UnixNano())
		return nil
	}))
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		return orbResult{}, err
	}
	if err := srv.Start(); err != nil {
		return orbResult{}, err
	}
	defer srv.Close()
	ior, err := srv.IORFor("IDL:mead/TimeOfDay:1.0", key)
	if err != nil {
		return orbResult{}, err
	}
	c := orb.NewClient(orb.WithConnectionPool())
	defer c.Close()

	var wg sync.WaitGroup
	var mu sync.Mutex
	var ops int
	var firstErr error
	start := time.Now()
	cpu0 := cpuTime()
	deadline := start.Add(dur)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ref := c.Object(ior)
			defer ref.Close()
			id := fmt.Sprintf("bare-%d", i)
			var seq uint64
			n := 0
			var err error
			for time.Now().Before(deadline) {
				seq++
				err = ref.Invoke("time_of_day", func(e *cdr.Encoder) {
					e.WriteString(id)
					e.WriteULongLong(seq)
				}, func(d *cdr.Decoder) error {
					_, err := d.ReadLongLong()
					return err
				})
				if err != nil {
					break
				}
				n++
			}
			mu.Lock()
			ops += n
			if err != nil && firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	cpu := cpuTime() - cpu0
	if firstErr != nil {
		return orbResult{}, fmt.Errorf("bare ORB rung: %w", firstErr)
	}
	if ops == 0 {
		return orbResult{}, fmt.Errorf("bare ORB rung: no invocation completed")
	}
	return orbResult{
		throughput: float64(ops) / elapsed.Seconds(),
		cpuUSPerOp: float64(cpu) / 1e3 / float64(ops),
	}, nil
}

// appendLadder times durable Store.Append of the workload's Op shape in a
// fresh directory, including the flush that makes the batch visible, and
// leaves the log behind in dir.
func appendLadder(dir, clientID string) (float64, error) {
	const batch = 20_000
	st, _, err := durable.Open(durable.Config{Dir: dir, Replica: "ladder", QueueDepth: 4096})
	if err != nil {
		return 0, err
	}
	per := make([]float64, 0, ladderRounds)
	var op uint64
	for r := 0; r < ladderRounds; r++ {
		start := time.Now()
		for i := 0; i < batch; i++ {
			op++
			st.Append(durable.Op{OpNumber: op, Counter: op, Client: clientID, ClientSeq: op})
		}
		st.Barrier()
		per = append(per, float64(time.Since(start))/batch)
	}
	st.Close()
	if err := st.Err(); err != nil {
		return 0, fmt.Errorf("durable append rung: %w", err)
	}
	return median(per), nil
}

// openLadder times durable.Open on dir (in-memory workloads: the append
// rung's log).
func openLadder(dir string) (float64, error) {
	t := time.Now()
	st, _, err := durable.Open(durable.Config{Dir: dir, Replica: "ladder"})
	if err != nil {
		return 0, err
	}
	ms := float64(time.Since(t)) / 1e6
	st.Close()
	return ms, nil
}

// probe is two benchmark-owned GCS members multicasting on a private group
// of the deployment's hub at a fixed low rate; every delivery's latency
// from send to receipt is one sample.
type probe struct {
	a, b    *gcs.Member
	stop    chan struct{}
	wg      sync.WaitGroup
	mu      sync.Mutex
	samples []int64
	sent    int
	tr      *tracer
}

const (
	probeGroup  = "bench.probe"
	probePeriod = time.Millisecond
)

func startProbe(hubAddr string, tr *tracer) (*probe, error) {
	a, err := gcs.Dial(hubAddr, "bench-probe-a")
	if err != nil {
		return nil, err
	}
	b, err := gcs.Dial(hubAddr, "bench-probe-b")
	if err != nil {
		_ = a.Close()
		return nil, err
	}
	p := &probe{a: a, b: b, stop: make(chan struct{}), tr: tr}
	for _, m := range []*gcs.Member{a, b} {
		if err := m.Join(probeGroup); err != nil {
			p.close()
			return nil, err
		}
		p.wg.Add(1)
		go p.receive(m)
	}
	p.wg.Add(1)
	go p.send()
	return p, nil
}

func (p *probe) send() {
	defer p.wg.Done()
	t := time.NewTicker(probePeriod)
	defer t.Stop()
	buf := make([]byte, 16)
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
		}
		id := p.tr.newID()
		start := p.tr.now()
		binary.BigEndian.PutUint64(buf[:8], uint64(start))
		binary.BigEndian.PutUint64(buf[8:], id)
		err := p.a.Multicast(probeGroup, buf)
		p.tr.keep(span{Trace: id, ID: id, Name: "gcs.Member.Multicast", Start: start, End: p.tr.now()})
		if err != nil {
			return
		}
		p.mu.Lock()
		p.sent++
		p.mu.Unlock()
	}
}

func (p *probe) receive(m *gcs.Member) {
	defer p.wg.Done()
	for {
		select {
		case d, ok := <-m.Deliveries():
			if !ok {
				return
			}
			if d.Kind != gcs.DeliverData || d.Group != probeGroup || len(d.Payload) < 16 {
				continue
			}
			now := p.tr.now()
			sent := int64(binary.BigEndian.Uint64(d.Payload[:8]))
			id := binary.BigEndian.Uint64(d.Payload[8:])
			p.tr.keep(span{Trace: id, ID: p.tr.newID(), Parent: id, Name: "gcs.deliver", Start: sent, End: now})
			p.mu.Lock()
			p.samples = append(p.samples, now-sent)
			p.mu.Unlock()
		case <-m.Done():
			return
		}
	}
}

// close stops the probe and waits for its goroutines; it returns the
// delivery latencies and the multicasts sent.
func (p *probe) close() ([]int64, int) {
	select {
	case <-p.stop:
	default:
		close(p.stop)
	}
	_ = p.a.Close()
	_ = p.b.Close()
	p.wg.Wait()
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.samples, p.sent
}

// checkpointBytes is the size of a replica's durable checkpoint file.
func checkpointBytes(stateDir, name string) float64 {
	fi, err := os.Stat(filepath.Join(stateDir, name, "checkpoint"))
	if err != nil {
		return 0
	}
	return float64(fi.Size())
}
