package vtpm

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"xvtpm/internal/metrics"
	"xvtpm/internal/ring"
	"xvtpm/internal/xen"
)

// TransportMetrics instruments the guest transport path: end-to-end guest
// round-trip latency (recorded by frontends) and the request batch size per
// backend drain (recorded by backends). One instance serves a whole host;
// both histograms are atomic and zero-alloc to record.
type TransportMetrics struct {
	// GuestRTT is the guest-observed command round trip: encode, ring,
	// dispatch, ring back, decode.
	GuestRTT *metrics.Histogram
	// RingBatch distributes the number of request frames each backend drain
	// pulled per wakeup (recorded as a Duration whose integer value is the
	// frame count).
	RingBatch *metrics.Histogram
}

// ringBatchBounds bucket batch sizes 1..N for the 8-slot device ring, with
// headroom for larger geometries.
var ringBatchBounds = []int64{1, 2, 3, 4, 6, 8, 12, 16, 32}

// NewTransportMetrics builds the host's transport instruments.
func NewTransportMetrics() *TransportMetrics {
	return &TransportMetrics{
		GuestRTT:  metrics.NewHistogram(nil),
		RingBatch: metrics.NewHistogram(ringBatchBounds),
	}
}

// Register exposes the transport instruments in reg.
func (t *TransportMetrics) Register(reg *metrics.Registry) error {
	if err := reg.RegisterHistogram("xvtpm_guest_rtt_seconds",
		"End-to-end guest command round-trip latency.", t.GuestRTT); err != nil {
		return err
	}
	return reg.RegisterHistogram("xvtpm_ring_batch_frames",
		"Request frames drained per backend wakeup.", t.RingBatch)
}

// FrontendConfig tunes one guest frontend.
type FrontendConfig struct {
	// PipelineDepth is the maximum number of commands the frontend keeps in
	// flight on the ring at once. 0 or 1 allows one command at a time (the
	// /dev/tpm0 model); larger values let concurrent callers overlap their
	// round trips. Clamped to the ring's slot count.
	PipelineDepth int
	// Metrics, when non-nil, receives guest round-trip latencies.
	Metrics *TransportMetrics
}

// pipeSpinPolls bounds the optimistic re-poll loop a waiter runs before
// arming the event-channel timeout: the backend usually answers within a few
// microseconds, so yielding the processor a bounded number of times catches
// most responses without ever sleeping.
const pipeSpinPolls = 64

// pendSlot is one in-flight command in the frontend's pending table. The
// ring frame tag (id) matches responses to slots out of order; seq is the
// channel sequence tag the response envelope must carry.
type pendSlot struct {
	id   uint64
	seq  uint64
	rsp  []byte // framed response payload, copied out of the drain batch
	used bool
	done bool
}

// pipeline is the pending table plus the cooperative drain state of one
// frontend. One waiter at a time is elected drainer; it pulls whole response
// batches off the ring and deposits them into slots by frame tag, then wakes
// everyone to re-check.
type pipeline struct {
	mu sync.Mutex
	// slotFree wakes callers waiting for a free slot, and a closing
	// frontend waiting for the table to empty.
	slotFree sync.Cond
	arrival  sync.Cond // waiters for a deposited response
	slots    []pendSlot
	inflight int  // slots in use
	closed   bool // Close has begun: claims fail with ErrNotConnected
	draining bool
	stale    uint64 // responses whose tag matched no in-flight slot
	txBuf    []byte // shared framed-request build buffer (under mu)
	rx       ring.Batch
}

func newPipeline(depth int) *pipeline {
	p := &pipeline{slots: make([]pendSlot, depth)}
	p.slotFree.L = &p.mu
	p.arrival.L = &p.mu
	return p
}

// StaleResponses reports how many drained responses matched no in-flight
// command (tests and fuzzing observability).
func (f *Frontend) StaleResponses() uint64 {
	f.pipe.mu.Lock()
	defer f.pipe.mu.Unlock()
	return f.pipe.stale
}

// depositLocked matches one drained response frame to its pending slot by
// ring tag, copying the payload into the slot. Unmatched frames — stale
// tags, duplicates for already-completed slots — are counted and dropped.
// Called with p.mu held.
func (p *pipeline) depositLocked(id uint64, payload []byte) {
	for j := range p.slots {
		s := &p.slots[j]
		if s.used && !s.done && s.id == id {
			s.rsp = append(s.rsp[:0], payload...)
			s.done = true
			return
		}
	}
	p.stale++
}

// depositBatch deposits a whole drained batch under p.mu.
func (p *pipeline) depositBatch(n int) {
	p.mu.Lock()
	for i := 0; i < n; i++ {
		id, payload := p.rx.Frame(i)
		p.depositLocked(id, payload)
	}
	p.mu.Unlock()
}

// releaseLocked returns a slot to the table. Called with p.mu held.
func (p *pipeline) releaseLocked(s *pendSlot) {
	s.used = false
	p.inflight--
	if p.closed {
		p.slotFree.Broadcast() // Close is waiting for the table to empty
	} else {
		p.slotFree.Signal()
	}
}

// claimLocked waits for a free slot and marks it in use. It fails with
// ErrNotConnected before Setup and once Close has begun. Called with p.mu
// held.
func (f *Frontend) claimLocked() (*pendSlot, error) {
	p := f.pipe
	for {
		if p.closed || f.r == nil {
			return nil, ErrNotConnected
		}
		for j := range p.slots {
			if s := &p.slots[j]; !s.used {
				s.used, s.done = true, false
				p.inflight++
				return s, nil
			}
		}
		p.slotFree.Wait()
	}
}

// Transmit implements tpm.Transport: claim a pending slot, encode and
// enqueue under the pipeline lock (so ring order matches sequence order,
// which the server's anti-replay window requires), kick the backend, then
// wait for the slot's response, cooperatively draining the ring. At most
// PipelineDepth commands are in flight; with depth 1 concurrent callers take
// turns, matching the /dev/tpm0 semantics guests see. The returned slice is
// caller-owned: the slot is recycled as soon as its response is decoded.
func (f *Frontend) Transmit(cmd []byte) ([]byte, error) {
	var start time.Time
	tm := f.cfg.Metrics
	if tm != nil {
		start = time.Now()
	}
	p := f.pipe
	p.mu.Lock()
	s, err := f.claimLocked()
	if err != nil {
		p.mu.Unlock()
		return nil, err
	}
	// The tag byte is reserved up front so the codec appends the envelope
	// straight behind it. EnqueueRequest copies the frame into the ring
	// slot, so the next command may reuse the buffer.
	buf, seq, err := f.codec.EncodeRequest(append(p.txBuf[:0], payloadEncoded), cmd)
	if err == nil {
		p.txBuf = buf
		// Depth never exceeds the slot count and every in-flight command's
		// response is drained eagerly, so the ring cannot be full here and
		// the enqueue never blocks while p.mu is held.
		s.id, err = f.r.EnqueueRequest(buf)
		s.seq = seq
	}
	if err != nil {
		p.releaseLocked(s)
		p.mu.Unlock()
		return nil, err
	}
	p.mu.Unlock()
	// Skip the doorbell when the backend is already draining (it will pick
	// the request up in its final ring check before sleeping).
	if f.r.RequestNotifyWanted() {
		if err := f.hv.EventChannels().Notify(f.dom.ID(), f.port); err != nil {
			p.mu.Lock()
			p.releaseLocked(s)
			p.mu.Unlock()
			return nil, err
		}
	} else {
		f.hv.EventChannels().NoteSuppressed()
	}

	p.mu.Lock()
	for !s.done {
		if p.draining {
			p.arrival.Wait()
			continue
		}
		p.draining = true
		p.mu.Unlock()
		derr := f.drainResponses(p)
		p.mu.Lock()
		p.draining = false
		p.arrival.Broadcast()
		if derr != nil && !s.done {
			p.releaseLocked(s)
			p.mu.Unlock()
			return nil, derr
		}
	}
	// The slot is ours until it is released, so decode outside p.mu.
	p.mu.Unlock()
	out, err := f.decodeSlot(s)
	p.mu.Lock()
	p.releaseLocked(s)
	p.mu.Unlock()
	if err == nil && tm != nil {
		tm.GuestRTT.Record(time.Since(start))
	}
	return out, err
}

// decodeSlot unwraps a completed slot's framed response. The returned slice
// is caller-owned (copied or freshly decoded), since the slot is recycled
// immediately after.
func (f *Frontend) decodeSlot(s *pendSlot) ([]byte, error) {
	rp := s.rsp
	if len(rp) == 0 {
		return nil, ErrShortPayload
	}
	switch rp[0] {
	case payloadRaw:
		return append([]byte(nil), rp[1:]...), nil
	case payloadEncoded:
		return f.codec.DecodeResponse(nil, rp[1:], s.seq)
	default:
		return nil, fmt.Errorf("vtpm: unknown response framing %d", rp[0])
	}
}

// drainResponses pulls response batches off the ring until at least one
// frame is deposited or an error occurs. While running, the frontend's
// response-notify flag is cleared so the backend coalesces doorbells; it is
// re-raised on every exit and before every sleep (with a final ring check)
// so no response is ever announced into silence.
func (f *Frontend) drainResponses(p *pipeline) error {
	ec := f.hv.EventChannels()
	f.r.SetResponseNotify(false)
	for spin := 0; ; spin++ {
		n, err := f.r.DequeueResponseBatchInto(&p.rx, 0)
		if err != nil {
			f.r.SetResponseNotify(true)
			return err
		}
		if n > 0 {
			p.depositBatch(n)
			f.r.SetResponseNotify(true)
			return nil
		}
		if spin < pipeSpinPolls {
			runtime.Gosched()
			continue
		}
		// About to sleep: re-enable doorbells, then check once more.
		f.r.SetResponseNotify(true)
		n, err = f.r.DequeueResponseBatchInto(&p.rx, 0)
		if err != nil {
			return err
		}
		if n > 0 {
			p.depositBatch(n)
			return nil
		}
		if werr := ec.WaitTimeout(f.dom.ID(), f.port, driverWaitPoll); werr != nil &&
			!errors.Is(werr, xen.ErrWaitTimeout) {
			return werr
		}
		f.r.SetResponseNotify(false)
		spin = 0
	}
}
