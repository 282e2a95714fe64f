package ring

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func newTestRing(t *testing.T, g Geometry) *Ring {
	t.Helper()
	region := make([]byte, g.RegionSize())
	r, err := Init(region, g, nil)
	if err != nil {
		t.Fatalf("Init: %v", err)
	}
	return r
}

// dequeueOne pops at most one frame through a batched drain call
// (r.DequeueRequestBatchInto or r.DequeueResponseBatchInto); ok is false
// when nothing was pending.
func dequeueOne(drain func(*Batch, int) (int, error)) (id uint64, payload []byte, ok bool, err error) {
	var b Batch
	n, err := drain(&b, 1)
	if err != nil || n == 0 {
		return 0, nil, false, err
	}
	id, payload = b.Frame(0)
	return id, payload, true, nil
}

// waitOne is dequeueOne polling until a frame arrives or the ring fails.
func waitOne(drain func(*Batch, int) (int, error)) (uint64, []byte, error) {
	for {
		id, p, ok, err := dequeueOne(drain)
		if err != nil || ok {
			return id, p, err
		}
		runtime.Gosched()
	}
}

// respond publishes one response frame as a single-frame batch.
func respond(r *Ring, id uint64, payload []byte) error {
	var b Batch
	appendFrame(&b, id, payload)
	return r.EnqueueResponseBatch(&b)
}

// exchange runs one full request/response round trip, the backend echoing
// the request payload back as the response.
func exchange(r *Ring, payload []byte) (id uint64, req, rsp []byte, err error) {
	if id, err = r.EnqueueRequest(payload); err != nil {
		return 0, nil, nil, err
	}
	gid, req, _, err := dequeueOne(r.DequeueRequestBatchInto)
	if err != nil {
		return 0, nil, nil, err
	}
	if gid != id {
		return 0, nil, nil, fmt.Errorf("request id %d, want %d", gid, id)
	}
	if err := respond(r, id, req); err != nil {
		return 0, nil, nil, err
	}
	rid, rsp, _, err := dequeueOne(r.DequeueResponseBatchInto)
	if err != nil {
		return 0, nil, nil, err
	}
	if rid != id {
		return 0, nil, nil, fmt.Errorf("response id %d, want %d", rid, id)
	}
	return id, req, rsp, nil
}

func TestInitRejectsBadGeometry(t *testing.T) {
	cases := []Geometry{
		{NumSlots: 0, SlotSize: 64},
		{NumSlots: 3, SlotSize: 64},
		{NumSlots: 6, SlotSize: 64},
	}
	for _, g := range cases {
		if _, err := Init(make([]byte, 1<<16), g, nil); !errors.Is(err, ErrBadGeometry) {
			t.Errorf("Init(%+v) err = %v, want ErrBadGeometry", g, err)
		}
	}
}

func TestInitRejectsShortRegion(t *testing.T) {
	g := Geometry{NumSlots: 4, SlotSize: 128}
	if _, err := Init(make([]byte, g.RegionSize()-1), g, nil); !errors.Is(err, ErrBadRegion) {
		t.Fatalf("err = %v, want ErrBadRegion", err)
	}
}

func TestRoundTripSingle(t *testing.T) {
	r := newTestRing(t, Geometry{NumSlots: 4, SlotSize: 256})
	id, err := r.EnqueueRequest([]byte("hello tpm"))
	if err != nil {
		t.Fatalf("EnqueueRequest: %v", err)
	}
	gotID, payload, ok, err := dequeueOne(r.DequeueRequestBatchInto)
	if err != nil || !ok {
		t.Fatalf("request dequeue: ok=%v err=%v", ok, err)
	}
	if gotID != id || string(payload) != "hello tpm" {
		t.Fatalf("got (%d, %q), want (%d, %q)", gotID, payload, id, "hello tpm")
	}
	if err := respond(r, id, []byte("resp")); err != nil {
		t.Fatalf("EnqueueResponseBatch: %v", err)
	}
	rid, rp, ok, err := dequeueOne(r.DequeueResponseBatchInto)
	if err != nil || !ok {
		t.Fatalf("response dequeue: ok=%v err=%v", ok, err)
	}
	if rid != id || string(rp) != "resp" {
		t.Fatalf("got (%d, %q), want (%d, %q)", rid, rp, id, "resp")
	}
}

func TestPayloadTooLarge(t *testing.T) {
	r := newTestRing(t, Geometry{NumSlots: 2, SlotSize: 8})
	if _, err := r.EnqueueRequest(make([]byte, 9)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("EnqueueRequest err = %v, want ErrTooLarge", err)
	}
	if err := respond(r, 1, make([]byte, 9)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("EnqueueResponseBatch err = %v, want ErrTooLarge", err)
	}
}

func TestResponseWithoutRequestFails(t *testing.T) {
	r := newTestRing(t, Geometry{NumSlots: 2, SlotSize: 32})
	if err := respond(r, 1, []byte("x")); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("err = %v, want ErrOutOfOrder", err)
	}
}

func TestResponseWrongIDFails(t *testing.T) {
	r := newTestRing(t, Geometry{NumSlots: 2, SlotSize: 32})
	id, _ := r.EnqueueRequest([]byte("a"))
	if _, _, _, err := dequeueOne(r.DequeueRequestBatchInto); err != nil {
		t.Fatal(err)
	}
	if err := respond(r, id+7, []byte("x")); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("err = %v, want ErrUnknownID", err)
	}
}

func TestBlockingWhenFullThenDrain(t *testing.T) {
	r := newTestRing(t, Geometry{NumSlots: 2, SlotSize: 32})
	for i := 0; i < 2; i++ {
		if _, err := r.EnqueueRequest([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() {
		_, err := r.EnqueueRequest([]byte{9})
		done <- err
	}()
	// Drain one full exchange to free a slot.
	id, _, _, err := dequeueOne(r.DequeueRequestBatchInto)
	if err != nil {
		t.Fatal(err)
	}
	if err := respond(r, id, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := dequeueOne(r.DequeueResponseBatchInto); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("blocked enqueue returned %v", err)
	}
}

func TestCloseUnblocksWaiters(t *testing.T) {
	r := newTestRing(t, Geometry{NumSlots: 2, SlotSize: 32})
	for i := 0; i < 2; i++ {
		if _, err := r.EnqueueRequest([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// The ring is full, so this producer blocks until Close releases it.
	errs := make(chan error, 1)
	go func() { _, err := r.EnqueueRequest([]byte("blocked")); errs <- err }()
	for r.Stats().FullWaits == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	r.Close()
	if err := <-errs; !errors.Is(err, ErrClosed) {
		t.Fatalf("waiter err = %v, want ErrClosed", err)
	}
	if _, err := r.EnqueueRequest([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close enqueue err = %v, want ErrClosed", err)
	}
	var b Batch
	if _, err := r.DequeueRequestBatchInto(&b, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close request drain err = %v, want ErrClosed", err)
	}
	if _, err := r.DequeueResponseBatchInto(&b, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close response drain err = %v, want ErrClosed", err)
	}
	if err := r.EnqueueResponseBatch(&b); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close response enqueue err = %v, want ErrClosed", err)
	}
}

func TestDequeueRequestBatchEmptyThenOne(t *testing.T) {
	r := newTestRing(t, Geometry{NumSlots: 2, SlotSize: 32})
	if _, _, ok, err := dequeueOne(r.DequeueRequestBatchInto); ok || err != nil {
		t.Fatalf("empty ring: ok=%v err=%v", ok, err)
	}
	id, _ := r.EnqueueRequest([]byte("q"))
	gid, p, ok, err := dequeueOne(r.DequeueRequestBatchInto)
	if err != nil || !ok || gid != id || string(p) != "q" {
		t.Fatalf("got (%d,%q,%v,%v)", gid, p, ok, err)
	}
}

func TestSlotZeroizedAfterResponseConsumed(t *testing.T) {
	r := newTestRing(t, Geometry{NumSlots: 2, SlotSize: 64})
	secret := []byte("super-secret-auth-value")
	id, _ := r.EnqueueRequest(secret)
	region := r.region
	if !bytes.Contains(region, secret) {
		t.Fatal("request bytes should be visible in shared memory while in flight")
	}
	dequeueOne(r.DequeueRequestBatchInto)
	respond(r, id, []byte("fine"))
	dequeueOne(r.DequeueResponseBatchInto)
	if bytes.Contains(region, secret) {
		t.Fatal("request bytes still present in shared memory after exchange completed")
	}
	if bytes.Contains(region, []byte("fine")) {
		t.Fatal("response bytes still present in shared memory after exchange completed")
	}
}

func TestManyExchangesWrapIndices(t *testing.T) {
	r := newTestRing(t, Geometry{NumSlots: 4, SlotSize: 16})
	for i := 0; i < 1000; i++ {
		want := []byte(fmt.Sprintf("m%04d", i))
		_, req, rsp, err := exchange(r, want)
		if err != nil || !bytes.Equal(req, want) || !bytes.Equal(rsp, want) {
			t.Fatalf("i=%d: (%q,%q,%v)", i, req, rsp, err)
		}
	}
}

func TestConcurrentFrontBack(t *testing.T) {
	r := newTestRing(t, Geometry{NumSlots: 8, SlotSize: 32})
	const n = 500
	var wg sync.WaitGroup
	wg.Add(2)
	// Backend: echo every request.
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			id, p, err := waitOne(r.DequeueRequestBatchInto)
			if err != nil {
				t.Errorf("backend: %v", err)
				return
			}
			if err := respond(r, id, p); err != nil {
				t.Errorf("backend: %v", err)
				return
			}
		}
	}()
	// Frontend consumer.
	got := make(map[uint64][]byte, n)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			id, p, err := waitOne(r.DequeueResponseBatchInto)
			if err != nil {
				t.Errorf("frontend: %v", err)
				return
			}
			got[id] = append([]byte(nil), p...)
		}
	}()
	sent := make(map[uint64][]byte, n)
	for i := 0; i < n; i++ {
		msg := []byte(fmt.Sprintf("msg-%d", i))
		id, err := r.EnqueueRequest(msg)
		if err != nil {
			t.Fatal(err)
		}
		sent[id] = msg
	}
	wg.Wait()
	if len(got) != n {
		t.Fatalf("got %d responses, want %d", len(got), n)
	}
	for id, p := range sent {
		if !bytes.Equal(got[id], p) {
			t.Fatalf("id %d: got %q want %q", id, got[id], p)
		}
	}
}

// TestPropertyEchoPreservesPayloads is a property-based check: any sequence of
// payloads within slot size echoes back intact and in order.
func TestPropertyEchoPreservesPayloads(t *testing.T) {
	g := Geometry{NumSlots: 8, SlotSize: 128}
	f := func(msgs [][]byte) bool {
		r, err := Init(make([]byte, g.RegionSize()), g, nil)
		if err != nil {
			return false
		}
		for _, m := range msgs {
			if len(m) > int(g.SlotSize) {
				m = m[:g.SlotSize]
			}
			_, req, rsp, err := exchange(r, m)
			if err != nil || !bytes.Equal(req, m) || !bytes.Equal(rsp, m) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAttachResolvesSameRing(t *testing.T) {
	g := Geometry{NumSlots: 4, SlotSize: 64}
	region := make([]byte, g.RegionSize())
	r, err := Init(region, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Any view sharing the first byte resolves to the same Ring.
	attached, err := Attach(region[:1])
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	if attached != r {
		t.Fatal("Attach returned a different Ring")
	}
	// Foreign regions are refused.
	if _, err := Attach(make([]byte, 64)); !errors.Is(err, ErrBadRegion) {
		t.Fatalf("foreign attach err = %v", err)
	}
	if _, err := Attach(nil); !errors.Is(err, ErrBadRegion) {
		t.Fatalf("nil attach err = %v", err)
	}
	// Closing deregisters.
	r.Close()
	if _, err := Attach(region); !errors.Is(err, ErrBadRegion) {
		t.Fatalf("attach after close err = %v", err)
	}
}

func TestDequeueResponseBatchAndPendingStats(t *testing.T) {
	r := newTestRing(t, Geometry{NumSlots: 4, SlotSize: 32})
	if _, _, ok, err := dequeueOne(r.DequeueResponseBatchInto); ok || err != nil {
		t.Fatalf("empty: ok=%v err=%v", ok, err)
	}
	id, _ := r.EnqueueRequest([]byte("q"))
	if s := r.Stats(); s.PendingRequests != 1 || s.PendingResponses != 0 {
		t.Fatalf("pending = %d/%d", s.PendingRequests, s.PendingResponses)
	}
	dequeueOne(r.DequeueRequestBatchInto)
	respond(r, id, []byte("a"))
	if s := r.Stats(); s.PendingRequests != 0 || s.PendingResponses != 1 {
		t.Fatalf("pending = %d/%d", s.PendingRequests, s.PendingResponses)
	}
	gid, p, ok, err := dequeueOne(r.DequeueResponseBatchInto)
	if err != nil || !ok || gid != id || string(p) != "a" {
		t.Fatalf("got (%d,%q,%v,%v)", gid, p, ok, err)
	}
	// Closed ring refuses.
	r.Close()
	if _, _, _, err := dequeueOne(r.DequeueResponseBatchInto); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed err = %v", err)
	}
}

func BenchmarkRingRoundTrip(b *testing.B) {
	g := Geometry{NumSlots: 8, SlotSize: 4096}
	r, err := Init(make([]byte, g.RegionSize()), g, nil)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 1024)
	var req, rsp, back Batch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.EnqueueRequest(payload); err != nil {
			b.Fatal(err)
		}
		if _, err := r.DequeueRequestBatchInto(&req, 0); err != nil {
			b.Fatal(err)
		}
		id, p := req.Frame(0)
		rsp.Reset()
		rsp.Commit(id, append(rsp.Take(), p...))
		if err := r.EnqueueResponseBatch(&rsp); err != nil {
			b.Fatal(err)
		}
		if _, err := r.DequeueResponseBatchInto(&back, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// TestStats locks the traffic-counter contract: requests/responses count
// published frames, fullWaits counts blocked enqueues, pending tracks the
// live backlog.
func TestStats(t *testing.T) {
	r := newTestRing(t, Geometry{NumSlots: 2, SlotSize: 64})
	if s := r.Stats(); s != (Stats{}) {
		t.Fatalf("fresh ring stats = %+v, want zero", s)
	}
	id1, err := r.EnqueueRequest([]byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.EnqueueRequest([]byte("b")); err != nil {
		t.Fatal(err)
	}
	s := r.Stats()
	if s.Requests != 2 || s.PendingRequests != 2 || s.Responses != 0 || s.FullWaits != 0 {
		t.Fatalf("after 2 enqueues: %+v", s)
	}

	// Ring is full (2 slots, neither response consumed): a third enqueue
	// must block and be counted as a full-wait.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := r.EnqueueRequest([]byte("c")); err != nil {
			t.Errorf("blocked EnqueueRequest: %v", err)
		}
	}()
	// Wait until the third enqueue has actually blocked (the counter is
	// bumped before the wait), then open a slot to release it.
	for r.Stats().FullWaits == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	if _, _, _, err := dequeueOne(r.DequeueRequestBatchInto); err != nil {
		t.Fatal(err)
	}
	if err := respond(r, id1, []byte("A")); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := dequeueOne(r.DequeueResponseBatchInto); err != nil {
		t.Fatal(err)
	}
	<-done
	s = r.Stats()
	if s.Requests != 3 || s.Responses != 1 || s.FullWaits != 1 {
		t.Fatalf("after blocked enqueue cycle: %+v", s)
	}
	if s.PendingRequests != 2 || s.PendingResponses != 0 {
		t.Fatalf("pending after cycle: %+v", s)
	}
}
