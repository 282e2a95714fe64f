package ring

import "fmt"

// Batch is a reusable collection of dequeued or to-be-enqueued frames. All
// payloads live back-to-back in one scratch buffer, so a service loop that
// keeps a Batch across iterations drains and refills whole rings without
// allocating once the buffers reach steady-state size.
//
// Frame payloads alias the Batch's scratch buffer: they are valid until the
// next Reset or batched dequeue into the same Batch.
type Batch struct {
	ids  []uint64
	ends []int // frame i's payload is buf[ends[i-1]:ends[i]] (ends[-1] == 0)
	buf  []byte
}

// Reset empties the batch, keeping its buffers for reuse.
func (b *Batch) Reset() {
	b.ids = b.ids[:0]
	b.ends = b.ends[:0]
	b.buf = b.buf[:0]
}

// Len returns the number of frames in the batch.
func (b *Batch) Len() int { return len(b.ids) }

// Frame returns frame i's id and payload. The payload aliases the batch
// scratch buffer.
func (b *Batch) Frame(i int) (id uint64, payload []byte) {
	start := 0
	if i > 0 {
		start = b.ends[i-1]
	}
	return b.ids[i], b.buf[start:b.ends[i]]
}

// Take hands the caller the scratch buffer so a producer can append one
// frame's payload in place (avoiding an intermediate copy); the extended
// buffer must be returned through Commit before the next Take.
func (b *Batch) Take() []byte { return b.buf }

// Commit completes a Take: buf is the scratch returned by Take with exactly
// one frame's payload appended, which becomes the next frame, tagged id.
func (b *Batch) Commit(id uint64, buf []byte) {
	b.buf = buf
	b.ids = append(b.ids, id)
	b.ends = append(b.ends, len(b.buf))
}

// DequeueRequestBatchInto drains pending requests into b (which is Reset
// first), up to max frames (max <= 0 drains everything pending). It never
// blocks; n == 0 means the ring was empty. The backend's batched service
// loop calls this once per wakeup instead of popping one frame per notify.
func (r *Ring) DequeueRequestBatchInto(b *Batch, max int) (int, error) {
	b.Reset()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return 0, ErrClosed
	}
	r.bus.BeginWrite()
	defer r.bus.EndWrite()
	n := 0
	for r.reqCons != r.reqProd() && (max <= 0 || n < max) {
		start := len(b.buf)
		status, id, full := readSlotInto(r.slot(r.reqCons), b.buf)
		if status != slotRequest {
			return n, fmt.Errorf("ring: slot %d has status %d, want request", r.reqCons, status)
		}
		frame := r.applyDequeueFault(full[start:])
		// The fault hook may truncate or replace the frame; re-append so the
		// batch buffer always ends exactly at this frame's last byte. When
		// the hook was a no-op this copies a region onto itself.
		b.buf = append(full[:start], frame...)
		b.ids = append(b.ids, id)
		b.ends = append(b.ends, len(b.buf))
		r.reqCons++
		n++
	}
	if n > 0 {
		r.batchDrains++
		r.batchFrames += uint64(n)
	}
	return n, nil
}

// EnqueueResponseBatch publishes every frame in b as a response, in order,
// overwriting the slot each answered request occupied. Responses must be
// produced in request order (ErrOutOfOrder otherwise) and each frame's id
// must match its request slot (ErrUnknownID otherwise).
func (r *Ring) EnqueueResponseBatch(b *Batch) error {
	for i := 0; i < b.Len(); i++ {
		_, p := b.Frame(i)
		if uint32(len(p)) > r.slotSize {
			return fmt.Errorf("%w: %d > %d", ErrTooLarge, len(p), r.slotSize)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	r.bus.BeginWrite()
	defer r.bus.EndWrite()
	for i := 0; i < b.Len(); i++ {
		id, p := b.Frame(i)
		prod := r.rspProd()
		if prod >= r.reqCons {
			return ErrOutOfOrder
		}
		s := r.slot(prod)
		_, slotID := slotHeader(s)
		if slotID != id {
			return fmt.Errorf("%w: slot holds %d, got %d", ErrUnknownID, slotID, id)
		}
		writeSlot(s, slotResponse, id, p)
		r.setRspProd(prod + 1)
		r.responses++
	}
	return nil
}

// DequeueResponseBatchInto drains pending responses into b (Reset first), up
// to max frames (max <= 0 drains everything pending), zeroizing and freeing
// each slot. It never blocks; n == 0 means no responses were pending. The
// frontend calls this once per wakeup and matches the drained frames to
// in-flight commands by id.
func (r *Ring) DequeueResponseBatchInto(b *Batch, max int) (int, error) {
	b.Reset()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return 0, ErrClosed
	}
	r.bus.BeginWrite()
	defer r.bus.EndWrite()
	n := 0
	for r.rspCons != r.rspProd() && (max <= 0 || n < max) {
		s := r.slot(r.rspCons)
		start := len(b.buf)
		status, id, full := readSlotInto(s, b.buf)
		if status != slotResponse {
			return n, fmt.Errorf("ring: slot %d has status %d, want response", r.rspCons, status)
		}
		frame := r.applyDequeueFault(full[start:])
		b.buf = append(full[:start], frame...)
		b.ids = append(b.ids, id)
		b.ends = append(b.ends, len(b.buf))
		// Free the slot: zeroize so completed exchanges do not linger in
		// shared memory for a dump to harvest.
		zeroizeSlot(s)
		r.rspCons++
		n++
	}
	if n > 0 {
		r.notFull.Broadcast()
	}
	return n, nil
}
