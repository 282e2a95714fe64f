package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xvtpm/internal/faults"
	"xvtpm/internal/tpm"
	"xvtpm/internal/trace"
	"xvtpm/internal/vtpm"
	"xvtpm/internal/xen"
)

// The traced run's ledger. Spans are recorded from the benchmark's own
// files only, around calls into each layer's public functions:
//
//   - op spans around each guest client call (layer tpm),
//   - transmit spans from a decorator on the guest's tpm.Transport, which
//     also reads the manager's OnDispatch entry tap (layer vtpm transport),
//   - dispatch spans harvested from Manager.Spans and joined to the
//     transmits that caused them by ring sequence number (layer vtpm
//     dispatch), and
//   - put spans from a decorator passed as HostConfig.Store (layer store).
//
// Spans stay in memory and are written out when the benchmark ends.

// tracer is one run's tracing switch and span memory.
type tracer struct {
	on atomic.Bool

	mu    sync.Mutex
	spans []span
	puts  samples
	putN  int64
	bytes int64
}

// span is one recorded interval. Spans of one guest command share Req.
type span struct {
	Req    uint64        `json:"req"`
	Parent string        `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Start  time.Time     `json:"start"`
	Dur    time.Duration `json:"dur_ns"`
	Guest  int           `json:"guest"`
}

func (t *tracer) add(ss ...span) {
	t.mu.Lock()
	t.spans = append(t.spans, ss...)
	t.mu.Unlock()
}

// dump writes the spans as JSON lines to path.
func (t *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	return f.Close()
}

// timedStore decorates the manager's state store: with tracing on it times
// every Put and counts bytes. It exposes Inner so the program still finds a
// log store underneath.
type timedStore struct {
	vtpm.Store
	tr *tracer
}

func (s *timedStore) Put(name string, data []byte) error {
	if !s.tr.on.Load() {
		return s.Store.Put(name, data)
	}
	start := time.Now()
	err := s.Store.Put(name, data)
	d := time.Since(start)
	s.tr.mu.Lock()
	s.tr.puts = append(s.tr.puts, d)
	s.tr.putN++
	s.tr.bytes += int64(len(data))
	s.tr.mu.Unlock()
	return err
}

// Inner returns the decorated store.
func (s *timedStore) Inner() faults.BlobStore { return s.Store }

// entryTap records, per guest domain, when the manager last accepted a
// payload from it (Manager.OnDispatch). The map is filled before the tap
// is registered and only read afterwards.
type entryTap map[xen.DomID]*atomic.Int64

func (e entryTap) register(m *vtpm.Manager) {
	m.OnDispatch(func(from xen.DomID, _ []byte) {
		if a := e[from]; a != nil {
			a.Store(time.Now().UnixNano())
		}
	})
}

// xmit is one traced Transmit, later joined to its dispatch span.
type xmit struct {
	req        uint64
	start, end time.Time
	entry      time.Time // dispatch entry from the tap
}

// timedTransport decorates a guest's frontend. Exactly one goroutine uses a
// guest, so its fields need no lock.
type timedTransport struct {
	inner tpm.Transport
	tr    *tracer
	entry *atomic.Int64
	req   uint64 // current guest command, set before each command
	log   []xmit
}

// Transmit implements tpm.Transport.
func (t *timedTransport) Transmit(cmd []byte) ([]byte, error) {
	if !t.tr.on.Load() {
		return t.inner.Transmit(cmd)
	}
	start := time.Now()
	out, err := t.inner.Transmit(cmd)
	end := time.Now()
	x := xmit{req: t.req, start: start, end: end}
	if t.entry != nil {
		x.entry = time.Unix(0, t.entry.Load())
	}
	t.log = append(t.log, x)
	return out, err
}

// opTrace is one traced guest command: its client-call interval plus the
// joined transmits and dispatch spans.
type opTrace struct {
	op         string
	start, end time.Time
	xmits      []xmit
	disp       []trace.Span
}

// layerSplit attributes one command's time to the layers on its blocking
// path. Client time is the command's duration outside its transmits and
// the dispatch parts come from the manager's spans; transport is measured
// apart from both (see frameTransport), so the parts sum to the command's
// duration only as far as the two measurements agree.
type layerSplit struct {
	client, transport, queue, execute, signWait, flush time.Duration
}

func (o *opTrace) split() (layerSplit, bool) {
	if len(o.disp) != len(o.xmits) || len(o.xmits) == 0 {
		return layerSplit{}, false
	}
	var s layerSplit
	var xsum time.Duration
	for i, x := range o.xmits {
		d := o.disp[i]
		xsum += x.end.Sub(x.start)
		s.transport += frameTransport(x, d)
		s.queue += d.QueueWait
		s.execute += d.Execute
		s.signWait += d.SignWait
		s.flush += d.Flush
	}
	s.client = o.end.Sub(o.start) - xsum
	return s, true
}

// frameTransport is one frame's time in transport: from the transmit's
// start to the manager's OnDispatch entry stamp, plus from the end of the
// dispatch span to the transmit's end.
func frameTransport(x xmit, d trace.Span) time.Duration {
	return x.entry.Sub(x.start) + x.end.Sub(d.Start.Add(d.Total()))
}

// guestTrace collects one guest's traced commands and joins them to the
// manager's dispatch spans, harvesting the span ring before it wraps.
type guestTrace struct {
	g     int
	m     *vtpm.Manager
	inst  vtpm.InstanceID
	tt    *timedTransport
	tr    *tracer
	base  uint64 // ring sequence of the last span before tracing began
	seen  uint64
	ops   []*opTrace
	spans []trace.Span
	reqs  *atomic.Uint64
	bad   int // commands whose spans could not be joined

	unharvested int
}

func newGuestTrace(g int, m *vtpm.Manager, inst vtpm.InstanceID, tt *timedTransport, tr *tracer, reqs *atomic.Uint64) *guestTrace {
	return &guestTrace{g: g, m: m, inst: inst, tt: tt, tr: tr, reqs: reqs}
}

// begin marks the start of tracing for this guest.
func (gt *guestTrace) begin() error {
	st, err := gt.m.InstanceStats(gt.inst)
	if err != nil {
		return err
	}
	gt.base, gt.seen = st.SpansRecorded, st.SpansRecorded
	return nil
}

// start opens a traced command and returns its request id.
func (gt *guestTrace) start() uint64 {
	id := gt.reqs.Add(1)
	gt.tt.req = id
	return id
}

// finish closes a traced command and harvests dispatch spans when the ring
// is half full of unharvested ones.
func (gt *guestTrace) finish(op string, start, end time.Time) {
	o := &opTrace{op: op, start: start, end: end, xmits: append([]xmit(nil), gt.tt.log...)}
	gt.tt.log = gt.tt.log[:0]
	gt.ops = append(gt.ops, o)
	gt.unharvested += len(o.xmits)
	if gt.unharvested >= trace.DefaultDepth/2 {
		gt.harvest()
	}
}

// harvest copies the spans recorded since the last harvest.
func (gt *guestTrace) harvest() {
	gt.unharvested = 0
	ss, err := gt.m.Spans(gt.inst)
	if err != nil {
		return
	}
	for _, s := range ss {
		if s.Seq > gt.seen {
			gt.spans = append(gt.spans, s)
			gt.seen = s.Seq
		}
	}
}

// harvestAll takes the last dispatch spans of every guest; call it as soon
// as tracing stops, before later traffic overwrites the rings.
func harvestAll(gts []*guestTrace) {
	for _, gt := range gts {
		gt.harvest()
	}
}

// join matches transmits to dispatch spans in sequence order and records
// the spans of every command in the tracer. A match must be consistent
// with the OnDispatch entry tap: the dispatch started inside the transmit
// and was entered no earlier than its span's start.
func (gt *guestTrace) join() {
	next := gt.base + 1
	k := 0
	for _, o := range gt.ops {
		for _, x := range o.xmits {
			for k < len(gt.spans) && gt.spans[k].Seq < next {
				k++
			}
			if k < len(gt.spans) && gt.spans[k].Seq == next {
				d := gt.spans[k]
				if !d.Start.Before(x.start) && !x.entry.Before(d.Start) && !x.end.Before(x.entry) {
					o.disp = append(o.disp, d)
				}
			}
			next++
		}
		if len(o.disp) != len(o.xmits) {
			gt.bad++
			o.disp = nil
			continue
		}
		req := uint64(0)
		if len(o.xmits) > 0 {
			req = o.xmits[0].req
		}
		out := []span{{Req: req, Name: "tpm." + o.op, Start: o.start, Dur: o.end.Sub(o.start), Guest: gt.g}}
		for i, x := range o.xmits {
			d := o.disp[i]
			out = append(out,
				span{Req: req, Parent: "tpm." + o.op, Name: "vtpm.transmit", Start: x.start, Dur: x.end.Sub(x.start), Guest: gt.g},
				span{Req: req, Parent: "vtpm.transmit", Name: "vtpm.dispatch", Start: d.Start, Dur: d.Total(), Guest: gt.g})
		}
		gt.tr.add(out...)
	}
}

// memSnap is the Go runtime's allocation counters at one instant.
type memSnap struct {
	mallocs, bytes uint64
	gc             uint32
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gc: ms.NumGC}
}

// rssPeakMB reads the process's peak resident set size (VmHWM).
func rssPeakMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	var kb float64
	for _, line := range strings.Split(string(b), "\n") {
		if n, _ := fmt.Sscanf(line, "VmHWM: %f kB", &kb); n == 1 {
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
