package orb

import (
	"net"
	"runtime"
	"sync"
	"sync/atomic"

	"mead/internal/cdr"
	"mead/internal/giop"
)

// connWriter serializes and batches concurrent message writes on one
// connection. Each writer announces itself (pending) before taking the
// lock; after queueing its frame segments, the last writer out flushes the
// whole queue as ONE vectored write (net.Buffers → writev on TCP), so a
// burst of concurrent frames leaves in a single syscall without ever being
// copied into an intermediate coalescing buffer.
//
// Frames queue as segments that alias the pooled CDR encoders that built
// them (writeEncoder): the writer owns each encoder from enqueue until its
// bytes are on the wire, then Releases it — this is what lets the encode
// path skip finishMessage's exact-size copy. Ownership rules are documented
// in docs/PROTOCOL.md §10.
//
// With batching enabled (client pools that opted in via
// WithRequestBatching), a flush of more than one whole unfragmented message
// is additionally wrapped in a single GIOP batch frame (giop.MsgBatch), so
// the receiving server pays one header read and one frame parse for the
// whole burst.
type connWriter struct {
	conn    net.Conn
	vec     buffersWriter // conn's own vectored write, if it has one
	batch   bool          // wrap multi-frame flushes in one batch frame
	order   cdr.ByteOrder // byte order of fabricated batch-frame headers
	pending atomic.Int64
	batches atomic.Uint64 // batch frames emitted (test/diagnostic hook)

	mu       sync.Mutex
	err      error                // sticky transport error; fails later writers fast
	bufs     net.Buffers          // queued wire segments, flushed last-writer-out
	owned    []*cdr.Encoder       // pooled encoders backing queued segments
	canBatch bool                 // every queued segment is one whole unfragmented message
	hdr      [giop.HeaderLen]byte // reusable batch-frame header storage
}

// buffersWriter is a connection that takes a whole vector in one call: an
// interposing connection (interceptor.Conn) that would otherwise see one
// Write per queued segment from net.Buffers.WriteTo, which writes vectors
// in one writev only to the net package's own connections.
type buffersWriter interface {
	WriteBuffers(v net.Buffers) (int64, error)
}

func newConnWriter(conn net.Conn, order cdr.ByteOrder, batch bool) *connWriter {
	vec, _ := conn.(buffersWriter)
	return &connWriter{conn: conn, vec: vec, order: order, batch: batch, canBatch: true}
}

// writeMessage queues one pre-rendered message (fragmenting per maxBody)
// and flushes unless another writer has already committed to following it.
func (w *connWriter) writeMessage(msg []byte, maxBody int) error {
	if maxBody > 0 && len(msg)-giop.HeaderLen > maxBody {
		frames, err := giop.FragmentMessage(msg, maxBody)
		if err != nil {
			return err
		}
		return w.enqueueFragments(frames)
	}
	return w.enqueue(msg, nil, true)
}

// writeEncoder queues the complete message held in a pooled encoder (as
// returned by the EncodeRequestPooled family). Ownership of e transfers to
// the writer, which Releases it once the bytes are on the wire — or here,
// immediately, on the fragmentation fallback and the failed-connection
// fast path.
func (w *connWriter) writeEncoder(e *cdr.Encoder, maxBody int) error {
	msg := e.Bytes()
	if maxBody > 0 && len(msg)-giop.HeaderLen > maxBody {
		// Cold path: FragmentMessage copies the chunks into frames that own
		// their arrays, so the encoder can be recycled right away.
		frames, err := giop.FragmentMessage(msg, maxBody)
		e.Release()
		if err != nil {
			return err
		}
		return w.enqueueFragments(frames)
	}
	return w.enqueue(msg, e, true)
}

// enqueue adds one wire segment (with the encoder backing it, if pooled)
// and runs the last-writer-out flush protocol. The Gosched between
// enqueueing and the flush decision lets every already-runnable caller
// queue its frame first; under a burst the whole batch then leaves in a
// single vectored write, which matters most when GOMAXPROCS is small and
// writers would otherwise run (and flush) strictly one after another.
func (w *connWriter) enqueue(seg []byte, owned *cdr.Encoder, batchable bool) error {
	w.pending.Add(1)
	w.mu.Lock()
	err := w.err
	if err == nil {
		w.bufs = append(w.bufs, seg)
		if owned != nil {
			w.owned = append(w.owned, owned)
		}
		if !batchable {
			w.canBatch = false
		}
	} else if owned != nil {
		owned.Release()
	}
	w.mu.Unlock()
	return w.finishWrite(err)
}

// enqueueFragments queues the frames of one fragmented message. Fragmented
// messages are never batch-framed (batch sub-frames must be whole single
// messages), so their presence disables batching for this flush.
func (w *connWriter) enqueueFragments(frames [][]byte) error {
	w.pending.Add(1)
	w.mu.Lock()
	err := w.err
	if err == nil {
		w.bufs = append(w.bufs, frames...)
		w.canBatch = false
	}
	w.mu.Unlock()
	return w.finishWrite(err)
}

func (w *connWriter) finishWrite(err error) error {
	runtime.Gosched()
	if w.pending.Add(-1) == 0 {
		w.mu.Lock()
		if ferr := w.flushLocked(); err == nil {
			err = ferr
		}
		w.mu.Unlock()
	}
	return err
}

// flushLocked sends every queued segment in one vectored write and releases
// the encoders backing them. A connection with its own WriteBuffers takes
// the whole queue in that one call; any other goes through
// net.Buffers.WriteTo. When batching applies (enabled, >1 whole
// message queued, total within MaxMessageSize) the segments are prefixed
// with a batch-frame header so the peer sees a single giop.MsgBatch frame.
func (w *connWriter) flushLocked() error {
	if w.err != nil {
		w.releaseLocked()
		return w.err
	}
	if len(w.bufs) == 0 {
		return nil
	}
	if w.batch && w.canBatch && len(w.bufs) > 1 {
		total := 0
		for _, s := range w.bufs {
			total += len(s)
		}
		if total <= giop.MaxMessageSize() {
			giop.PutBatchHeader(w.hdr[:], w.order, total)
			w.bufs = append(w.bufs, nil)
			copy(w.bufs[1:], w.bufs[:len(w.bufs)-1])
			w.bufs[0] = w.hdr[:]
			w.batches.Add(1)
		}
	}
	var err error
	if w.vec != nil {
		_, err = w.vec.WriteBuffers(w.bufs)
	} else {
		// WriteTo via a copy of the slice header: consume() advances v and
		// nils entries as they drain, while w.bufs keeps the backing array
		// for reuse.
		v := w.bufs
		_, err = v.WriteTo(w.conn)
	}
	w.releaseLocked()
	if err != nil {
		w.err = err
	}
	return err
}

// releaseLocked recycles the encoders behind the queued segments and resets
// the queue, keeping both backing arrays for the next flush.
func (w *connWriter) releaseLocked() {
	for i, e := range w.owned {
		e.Release()
		w.owned[i] = nil
	}
	w.owned = w.owned[:0]
	clear(w.bufs)
	w.bufs = w.bufs[:0]
	w.canBatch = true
}
