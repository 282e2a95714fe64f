package ring

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// enqueueAll publishes each payload as one request, returning the ids.
func enqueueAll(t *testing.T, r *Ring, payloads ...[]byte) []uint64 {
	t.Helper()
	ids := make([]uint64, 0, len(payloads))
	for _, p := range payloads {
		id, err := r.EnqueueRequest(p)
		if err != nil {
			t.Fatalf("EnqueueRequest: %v", err)
		}
		ids = append(ids, id)
	}
	return ids
}

// appendFrame adds one frame to a response batch.
func appendFrame(b *Batch, id uint64, payload []byte) {
	b.Commit(id, append(b.Take(), payload...))
}

func TestBatchRoundTrip(t *testing.T) {
	r := newTestRing(t, Geometry{NumSlots: 8, SlotSize: 256})
	payloads := [][]byte{[]byte("alpha"), []byte("bb"), []byte("gamma-long-payload"), []byte("d")}
	ids := enqueueAll(t, r, payloads...)

	var req Batch
	n, err := r.DequeueRequestBatchInto(&req, 0)
	if err != nil {
		t.Fatalf("DequeueRequestBatchInto: %v", err)
	}
	if n != len(payloads) || req.Len() != len(payloads) {
		t.Fatalf("drained %d frames (batch %d), want %d", n, req.Len(), len(payloads))
	}
	var rsp Batch
	for i := 0; i < n; i++ {
		id, p := req.Frame(i)
		if id != ids[i] || !bytes.Equal(p, payloads[i]) {
			t.Fatalf("frame %d = (%d, %q), want (%d, %q)", i, id, p, ids[i], payloads[i])
		}
		appendFrame(&rsp, id, append([]byte("re:"), p...))
	}
	if err := r.EnqueueResponseBatch(&rsp); err != nil {
		t.Fatalf("EnqueueResponseBatch: %v", err)
	}

	var back Batch
	n, err = r.DequeueResponseBatchInto(&back, 0)
	if err != nil {
		t.Fatalf("DequeueResponseBatchInto: %v", err)
	}
	if n != len(payloads) {
		t.Fatalf("drained %d responses, want %d", n, len(payloads))
	}
	for i := 0; i < n; i++ {
		id, p := back.Frame(i)
		want := append([]byte("re:"), payloads[i]...)
		if id != ids[i] || !bytes.Equal(p, want) {
			t.Fatalf("response %d = (%d, %q), want (%d, %q)", i, id, p, ids[i], want)
		}
	}
}

func TestBatchDequeueMax(t *testing.T) {
	r := newTestRing(t, Geometry{NumSlots: 8, SlotSize: 64})
	var payloads [][]byte
	for i := 0; i < 6; i++ {
		payloads = append(payloads, []byte{byte(i)})
	}
	enqueueAll(t, r, payloads...)
	var b Batch
	n, err := r.DequeueRequestBatchInto(&b, 4)
	if err != nil || n != 4 {
		t.Fatalf("first drain = (%d, %v), want (4, nil)", n, err)
	}
	n, err = r.DequeueRequestBatchInto(&b, 4)
	if err != nil || n != 2 {
		t.Fatalf("second drain = (%d, %v), want (2, nil)", n, err)
	}
	if id, p := b.Frame(1); id == 0 || p[0] != 5 {
		t.Fatalf("last frame = (%d, %v)", id, p)
	}
	n, err = r.DequeueRequestBatchInto(&b, 0)
	if err != nil || n != 0 {
		t.Fatalf("empty drain = (%d, %v), want (0, nil)", n, err)
	}
}

func TestBatchStatsCountDrains(t *testing.T) {
	r := newTestRing(t, Geometry{NumSlots: 8, SlotSize: 64})
	var b Batch
	// Two non-empty drains of 3 and 2 frames; empty drains must not count.
	r.DequeueRequestBatchInto(&b, 0)
	enqueueAll(t, r, []byte("a"), []byte("b"), []byte("c"))
	r.DequeueRequestBatchInto(&b, 0)
	enqueueAll(t, r, []byte("d"), []byte("e"))
	r.DequeueRequestBatchInto(&b, 0)
	s := r.Stats()
	if s.BatchDrains != 2 || s.BatchFrames != 5 {
		t.Fatalf("stats = %d drains / %d frames, want 2 / 5", s.BatchDrains, s.BatchFrames)
	}
}

func TestBatchResponseIDMismatch(t *testing.T) {
	r := newTestRing(t, Geometry{NumSlots: 4, SlotSize: 64})
	ids := enqueueAll(t, r, []byte("x"), []byte("y"))
	var req Batch
	if _, err := r.DequeueRequestBatchInto(&req, 0); err != nil {
		t.Fatal(err)
	}
	// Responses must land in request order with matching ids: swapping the
	// two ids must be refused at the first frame.
	var rsp Batch
	appendFrame(&rsp, ids[1], []byte("r1"))
	appendFrame(&rsp, ids[0], []byte("r0"))
	if err := r.EnqueueResponseBatch(&rsp); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("err = %v, want ErrUnknownID", err)
	}
}

func TestBatchRejectsOversizedFrame(t *testing.T) {
	r := newTestRing(t, Geometry{NumSlots: 4, SlotSize: 16})
	ids := enqueueAll(t, r, []byte("a"), []byte("b"))
	var req, rsp Batch
	if _, err := r.DequeueRequestBatchInto(&req, 0); err != nil {
		t.Fatal(err)
	}
	// One oversized frame refuses the whole batch before anything publishes.
	appendFrame(&rsp, ids[0], []byte("ok"))
	appendFrame(&rsp, ids[1], make([]byte, 17))
	if err := r.EnqueueResponseBatch(&rsp); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
	if s := r.Stats(); s.Responses != 0 || s.PendingResponses != 0 {
		t.Fatalf("oversized batch published frames: %+v", s)
	}
}

func TestBatchFillsWholeRing(t *testing.T) {
	g := Geometry{NumSlots: 8, SlotSize: 32}
	r := newTestRing(t, g)
	var payloads [][]byte
	for i := 0; i < int(g.NumSlots); i++ {
		payloads = append(payloads, []byte(fmt.Sprintf("p%d", i)))
	}
	enqueueAll(t, r, payloads...)
	var req, rsp Batch
	n, err := r.DequeueRequestBatchInto(&req, 0)
	if err != nil || n != int(g.NumSlots) {
		t.Fatalf("drain = (%d, %v)", n, err)
	}
	for i := 0; i < n; i++ {
		id, p := req.Frame(i)
		rsp.Commit(id, append(rsp.Take(), p...))
	}
	if err := r.EnqueueResponseBatch(&rsp); err != nil {
		t.Fatal(err)
	}
	var back Batch
	if n, err := r.DequeueResponseBatchInto(&back, 0); err != nil || n != int(g.NumSlots) {
		t.Fatalf("response drain = (%d, %v)", n, err)
	}
}

func TestNotifyFlagsDefaultOnAndToggle(t *testing.T) {
	r := newTestRing(t, Geometry{NumSlots: 4, SlotSize: 64})
	// A fresh ring wants doorbells in both directions — a peer that never
	// touches the flags keeps the pre-batching behaviour.
	if !r.RequestNotifyWanted() || !r.ResponseNotifyWanted() {
		t.Fatal("fresh ring must want notifies in both directions")
	}
	r.SetRequestNotify(false)
	if r.RequestNotifyWanted() {
		t.Fatal("request notify still wanted after clear")
	}
	if !r.ResponseNotifyWanted() {
		t.Fatal("clearing request notify must not touch the response flag")
	}
	r.SetRequestNotify(true)
	r.SetResponseNotify(false)
	if !r.RequestNotifyWanted() || r.ResponseNotifyWanted() {
		t.Fatal("flags did not toggle independently")
	}
}

func TestBatchZeroizesDrainedResponseSlots(t *testing.T) {
	r := newTestRing(t, Geometry{NumSlots: 4, SlotSize: 64})
	secret := []byte("super-secret-response")
	ids := enqueueAll(t, r, []byte("q"))
	var req, rsp, back Batch
	if _, err := r.DequeueRequestBatchInto(&req, 0); err != nil {
		t.Fatal(err)
	}
	appendFrame(&rsp, ids[0], secret)
	if err := r.EnqueueResponseBatch(&rsp); err != nil {
		t.Fatal(err)
	}
	if _, err := r.DequeueResponseBatchInto(&back, 0); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(r.region, secret) {
		t.Fatal("drained response still present in shared memory")
	}
}
