package vtpm

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xvtpm/internal/metrics"
	"xvtpm/internal/ring"
	"xvtpm/internal/tpm"
	"xvtpm/internal/xen"
)

// connectPipelined is connectDevice with an explicit frontend configuration.
func connectPipelined(t *testing.T, guard Guard, cfg FrontendConfig) (*xen.Hypervisor, *Backend, *xen.Domain, *Frontend, *tpm.Client) {
	t.Helper()
	hv, xs, mgr, be := newTestRig(t, guard)
	dom := mkGuestDom(t, hv, xs, "g")
	id, err := mgr.CreateInstance()
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.BindInstance(id, dom); err != nil {
		t.Fatal(err)
	}
	fe := NewFrontendCfg(hv, xs, dom, PlainCodec{}, cfg)
	if err := fe.Setup(); err != nil {
		t.Fatal(err)
	}
	if err := be.AttachDevice(dom.ID()); err != nil {
		t.Fatal(err)
	}
	if err := fe.WaitConnected(); err != nil {
		t.Fatal(err)
	}
	return hv, be, dom, fe, tpm.NewClient(fe, nil)
}

func TestPipelinedConcurrentTransmit(t *testing.T) {
	tm := NewTransportMetrics()
	_, _, _, fe, cli := connectPipelined(t, &passGuard{},
		FrontendConfig{PipelineDepth: 8, Metrics: tm})
	if err := cli.SelfTestFull(); err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				if _, err := cli.GetRandom(16); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := fe.StaleResponses(); got != 0 {
		t.Fatalf("stale responses = %d, want 0", got)
	}
	// Every command round trip must have been timed.
	if s := tm.GuestRTT.Summarize(); s.Count < uint64(workers*perWorker) {
		t.Fatalf("GuestRTT count = %d, want >= %d", s.Count, workers*perWorker)
	}
}

func TestPipelineDepthClampedToRingSlots(t *testing.T) {
	hv := xen.NewHypervisor(xen.DomainConfig{Name: "Domain-0", Pages: 64})
	dom, err := hv.CreateDomain(xen.DomainConfig{Name: "g", Kernel: []byte("k")})
	if err != nil {
		t.Fatal(err)
	}
	fe := NewFrontendCfg(hv, nil, dom, PlainCodec{}, FrontendConfig{PipelineDepth: 1024})
	if got, want := fe.cfg.PipelineDepth, int(deviceRingGeometry.NumSlots); got != want {
		t.Fatalf("depth = %d, want clamp to %d", got, want)
	}
	if fe.pipe == nil || len(fe.pipe.slots) != int(deviceRingGeometry.NumSlots) {
		t.Fatal("pending table not sized to the clamped depth")
	}
}

// hookGuard is passGuard with a hook that runs inside AdmitCommand, i.e.
// while the backend is executing that command.
type hookGuard struct {
	passGuard
	onAdmit func()
}

func (g *hookGuard) AdmitCommand(inst InstanceInfo, from xen.DomID, launch xen.LaunchDigest, payload []byte) ([]byte, ResponseFinisher, error) {
	if g.onAdmit != nil {
		g.onAdmit()
	}
	return g.passGuard.AdmitCommand(inst, from, launch, payload)
}

// deviceRing returns the backend's view of a connected device's ring.
func deviceRing(t *testing.T, be *Backend, dom xen.DomID) *ring.Ring {
	t.Helper()
	be.mu.Lock()
	defer be.mu.Unlock()
	dev, ok := be.devices[dom]
	if !ok {
		t.Fatalf("dom%d has no connected device", dom)
	}
	return dev.r
}

// TestPipelineDepthOneStaysLockstep drives 8 concurrent callers through a
// depth-0 and a depth-1 frontend and checks the /dev/tpm0 discipline from
// the ring's side: while the backend executes a command no second request
// is published, and every backend drain carries exactly one frame.
func TestPipelineDepthOneStaysLockstep(t *testing.T) {
	for _, depth := range []int{0, 1} {
		var r atomic.Pointer[ring.Ring]
		var overlaps atomic.Int64
		guard := &hookGuard{onAdmit: func() {
			if rr := r.Load(); rr != nil && rr.Stats().PendingRequests > 0 {
				overlaps.Add(1)
			}
		}}
		_, be, dom, _, cli := connectPipelined(t, guard, FrontendConfig{PipelineDepth: depth})
		r.Store(deviceRing(t, be, dom.ID()))
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < 25; j++ {
					if _, err := cli.GetRandom(8); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("depth %d: %v", depth, err)
		}
		if n := overlaps.Load(); n != 0 {
			t.Fatalf("depth %d: %d commands executed with another request queued behind them", depth, n)
		}
		if s := r.Load().Stats(); s.BatchFrames != s.BatchDrains || s.Requests != 200 {
			t.Fatalf("depth %d: %d frames over %d drains, %d requests; want one frame per drain",
				depth, s.BatchFrames, s.BatchDrains, s.Requests)
		}
	}
}

// TestCloseDrainsInFlightCommand parks a command inside the backend, closes
// the frontend, and checks Close's contract: the caller still gets the
// command's real response, Close does not return before it, and a later
// Transmit fails with ErrNotConnected.
func TestCloseDrainsInFlightCommand(t *testing.T) {
	for _, depth := range []int{1, 4} {
		entered := make(chan struct{})
		release := make(chan struct{})
		var parked atomic.Bool
		guard := &hookGuard{onAdmit: func() {
			if parked.CompareAndSwap(false, true) {
				close(entered)
				<-release
			}
		}}
		_, _, _, fe, cli := connectPipelined(t, guard, FrontendConfig{PipelineDepth: depth})
		type result struct {
			rnd []byte
			err error
		}
		got := make(chan result, 1)
		go func() {
			rnd, err := cli.GetRandom(8)
			got <- result{rnd, err}
		}()
		<-entered
		closed := make(chan struct{})
		go func() {
			fe.Close()
			close(closed)
		}()
		// Wait until Close has begun refusing new commands, then make sure it
		// is still waiting on the parked one.
		for {
			fe.pipe.mu.Lock()
			c := fe.pipe.closed
			fe.pipe.mu.Unlock()
			if c {
				break
			}
			time.Sleep(50 * time.Microsecond)
		}
		select {
		case <-closed:
			t.Fatalf("depth %d: Close returned with a command in flight", depth)
		default:
		}
		if _, err := fe.Transmit([]byte{0}); !errors.Is(err, ErrNotConnected) {
			t.Fatalf("depth %d: Transmit during Close: err = %v, want ErrNotConnected", depth, err)
		}
		close(release)
		res := <-got
		if res.err != nil || len(res.rnd) != 8 {
			t.Fatalf("depth %d: in-flight command got (%x, %v), want its 8-byte response", depth, res.rnd, res.err)
		}
		<-closed
		if _, err := fe.Transmit([]byte{0}); !errors.Is(err, ErrNotConnected) {
			t.Fatalf("depth %d: Transmit after Close: err = %v, want ErrNotConnected", depth, err)
		}
	}
}

// TestPipelineSurvivesDroppedNotifies drops every event-channel notification
// in both directions: doorbells are gone entirely, so the only thing keeping
// the device alive is the WaitTimeout re-poll in the backend serve loop and
// the frontend drain loop. Traffic must still complete.
func TestPipelineSurvivesDroppedNotifies(t *testing.T) {
	hv, _, _, fe, cli := connectPipelined(t, &passGuard{}, FrontendConfig{PipelineDepth: 4})
	if err := cli.SelfTestFull(); err != nil {
		t.Fatal(err)
	}
	ec := hv.EventChannels()
	ec.SetNotifyFault(func(xen.DomID, xen.EvtchnPort) bool { return true })
	defer ec.SetNotifyFault(nil)
	for i := 0; i < 5; i++ {
		// Wait for the backend to go idle: it then wants a doorbell, so this
		// command sends a real notify, which the hook swallows, and completes
		// only because WaitTimeout re-polls the ring.
		for !fe.r.RequestNotifyWanted() {
			runtime.Gosched()
		}
		if _, err := cli.GetRandom(8); err != nil {
			t.Fatalf("command %d: %v", i, err)
		}
	}
	if ec.DroppedNotifies() == 0 {
		t.Fatal("fault hook never fired; test exercised nothing")
	}
}

// TestPipelinedTrafficSuppressesDoorbells runs enough overlapping traffic
// that the RING_FINAL_CHECK handshake coalesces at least some doorbells, and
// checks the suppressed-notify counter moved. Lockstep single-command
// round trips would make this flaky; sustained 8-deep traffic makes a
// drain-phase overlap all but certain.
func TestPipelinedTrafficSuppressesDoorbells(t *testing.T) {
	hv, _, _, _, cli := connectPipelined(t, &passGuard{}, FrontendConfig{PipelineDepth: 8})
	if err := cli.SelfTestFull(); err != nil {
		t.Fatal(err)
	}
	ec := hv.EventChannels()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if _, err := cli.GetRandom(8); err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	if ec.SuppressedNotifies() == 0 {
		t.Skip("no doorbell overlap this run (timing); counter plumbing is covered in xen tests")
	}
}

func TestPipelineStaleResponseCounted(t *testing.T) {
	p := newPipeline(4)
	p.slots[0].used = true
	p.slots[0].id = 7
	// Tag 9 matches nothing in flight; tag 7 deposits.
	p.mu.Lock()
	p.depositLocked(9, []byte("stale"))
	p.depositLocked(7, []byte("good"))
	// A duplicate for an already-completed slot is stale too.
	p.depositLocked(7, []byte("dup"))
	p.mu.Unlock()
	if p.stale != 2 {
		t.Fatalf("stale = %d, want 2", p.stale)
	}
	if !p.slots[0].done || string(p.slots[0].rsp) != "good" {
		t.Fatalf("slot state = %+v", p.slots[0])
	}
}

func TestTransportMetricsRegister(t *testing.T) {
	tm := NewTransportMetrics()
	reg := metrics.NewRegistry()
	if err := tm.Register(reg); err != nil {
		t.Fatal(err)
	}
	if err := tm.Register(metrics.NewRegistry()); err != nil {
		t.Fatal(err)
	}
	tm.GuestRTT.Record(1000)
	tm.RingBatch.Record(3)
	if s := tm.RingBatch.Summarize(); s.Count != 1 {
		t.Fatalf("ring batch count = %d", s.Count)
	}
}
