package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"xvtpm"
	"xvtpm/internal/core"
	"xvtpm/internal/metrics"
	"xvtpm/internal/store/logstore"
	"xvtpm/internal/tpm"
	"xvtpm/internal/vtpm"
	"xvtpm/internal/xen"
)

// rig is one host built for the benchmark: its store decorated, and the
// log store (when used) kept for its counters.
type rig struct {
	host  *xvtpm.Host
	log   *logstore.Store
	tap   entryTap
	tr    *tracer
	guard *core.ImprovedGuard
}

func parseProfile(s string) tpm.Profile {
	if s == "2.0" {
		return tpm.Profile20
	}
	return tpm.Profile12
}

// newRig boots a host the way xvtpm.NewHost would for ws, except that the
// store is built here so the benchmark can decorate it.
func newRig(name string, mode xvtpm.Mode, ws workloadSpec, seed int64, tr *tracer) (*rig, error) {
	r := &rig{tap: entryTap{}, tr: tr}
	var inner vtpm.Store
	switch ws.Store {
	case "flat":
		inner = vtpm.NewMemStore()
	case "log":
		r.log = logstore.New(logstore.Config{NotFound: vtpm.ErrNoState})
		inner = r.log
	default:
		return nil, fmt.Errorf("unknown store %q", ws.Store)
	}
	h, err := xvtpm.NewHost(xvtpm.HostConfig{
		Name:       name,
		Mode:       mode,
		RSABits:    ws.KeyBits,
		Seed:       []byte(fmt.Sprintf("vtpmbench|%d", seed)),
		Checkpoint: vtpm.CheckpointEager,
		Store:      &timedStore{Store: inner, tr: tr},
		Profile:    parseProfile(ws.Profile),
	})
	if err != nil {
		return nil, err
	}
	r.host = h
	r.guard, _ = h.ImprovedGuard()
	return r, nil
}

// attach builds the benchmark's own client transport for a guest: the
// frontend wrapped in the timing decorator.
func (r *rig) attach(g *xvtpm.Guest) *timedTransport {
	a := &atomic.Int64{}
	r.tap[g.Dom.ID()] = a
	return &timedTransport{inner: g.Frontend, tr: r.tr, entry: a}
}

// medianSetup runs build n times and returns the median duration, closing
// every fixture but the last, which it returns.
func medianSetup[T any](n int, build func() (T, error), closeFn func(T)) (T, float64, error) {
	var zero T
	var secs []float64
	var last T
	for i := 0; i < n; i++ {
		if i > 0 {
			closeFn(last)
			runtime.GC()
			debug.FreeOSMemory()
		}
		start := time.Now()
		v, err := build()
		if err != nil {
			return zero, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		last = v
	}
	return last, medianF(secs), nil
}

// hostSnap is one host's public counters at an instant.
type hostSnap struct {
	sign     *vtpm.SignDebug
	ls       logstore.Stats
	ring     metrics.HistogramSnapshot
	notifies uint64
	adm      core.AdmissionStats
}

func (r *rig) snap() hostSnap {
	s := hostSnap{
		sign:     r.host.Manager.SignDebug(),
		ring:     r.host.TransportMetrics().RingBatch.Snapshot(),
		notifies: r.host.HV.EventChannels().SentNotifies(),
	}
	if r.log != nil {
		s.ls = r.log.Stats()
	}
	if r.guard != nil {
		s.adm = r.guard.AdmissionStats()
	}
	return s
}

// window is the counters of a set of hosts at the start of a traced window.
type window struct {
	rigs   []*rig
	before []hostSnap
	mem    memSnap
}

func openWindow(rigs ...*rig) *window {
	w := &window{rigs: rigs, mem: readMem()}
	for _, r := range rigs {
		w.before = append(w.before, r.snap())
	}
	return w
}

// sumDelta is a running numerator/denominator pair.
type sumDelta struct{ num, den float64 }

func (s sumDelta) ratio() float64 { return ratio(s.num, s.den) }

// meanDelta is the exact mean of the samples a histogram summary gained.
func meanDelta(a, b metrics.HistogramSummary) (sum, n float64) {
	n = float64(b.Count) - float64(a.Count)
	sum = float64(b.Mean)*float64(b.Count) - float64(a.Mean)*float64(a.Count)
	return sum, n
}

// closeWindow reports the per-layer counters accumulated since the window
// opened, per guest command where the name says so.
func (w *window) closeWindow(r *run, cmds int64) {
	mem := readMem()
	var frames, notifies, hits, looks sumDelta
	var coalesce, commits, amp sumDelta
	for i, rg := range w.rigs {
		a, b := w.before[i], rg.snap()
		frames.num += float64(b.ring.Sum - a.ring.Sum)
		frames.den += float64(b.ring.Count - a.ring.Count)
		notifies.num += float64(b.notifies - a.notifies)
		hits.num += float64(b.adm.CacheHits - a.adm.CacheHits)
		looks.num += float64(b.adm.CacheHits + b.adm.CacheMisses - a.adm.CacheHits - a.adm.CacheMisses)
		if rg.log != nil {
			coalesce.num += float64(b.ls.BatchRecords - a.ls.BatchRecords)
			coalesce.den += float64(b.ls.Commits - a.ls.Commits)
			commits.num += float64(b.ls.Commits - a.ls.Commits)
			amp.num += float64(b.ls.BytesAppended - a.ls.BytesAppended)
			amp.den += float64(b.ls.UserBytes - a.ls.UserBytes)
		}
	}
	n := float64(cmds)
	w.signLayer(r)
	r.set("ring.frames_per_wake", "frames", frames.ratio())
	r.set("ring.notifies_per_cmd", "count", ratio(notifies.num, n))
	r.set("core.admit.cache_hit_ratio", "ratio", ratio(hits.num, looks.num))
	r.set("logstore.coalesce", "ratio", coalesce.ratio())
	r.set("logstore.flushes_per_cmd", "count", ratio(commits.num, n))
	r.set("logstore.write_amp", "ratio", amp.ratio())
	r.tr.mu.Lock()
	r.set("vtpm.store.put_us", "us", us(r.tr.puts.pct(0.5)))
	r.set("vtpm.store.puts_per_cmd", "count", ratio(float64(r.tr.putN), n))
	r.set("vtpm.store.bytes_per_cmd", "B", ratio(float64(r.tr.bytes), n))
	r.tr.mu.Unlock()
	r.set("runtime.allocs_per_cmd", "count", ratio(float64(mem.mallocs-w.mem.mallocs), n))
	r.set("runtime.alloc_bytes_per_cmd", "B", ratio(float64(mem.bytes-w.mem.bytes), n))
	r.set("runtime.gc_cycles", "count", float64(mem.gc-w.mem.gc))
}

// signLayer reports only the signing pool's figures for the window.
func (w *window) signLayer(r *run) {
	var q, s, jobs sumDelta
	for i, rg := range w.rigs {
		a, b := w.before[i], rg.snap()
		if a.sign == nil || b.sign == nil {
			continue
		}
		sq, nq := meanDelta(a.sign.QueueWait, b.sign.QueueWait)
		ss, ns := meanDelta(a.sign.SignTime, b.sign.SignTime)
		q.num, q.den = q.num+sq, q.den+nq
		s.num, s.den = s.num+ss, s.den+ns
		jobs.num += float64(b.sign.Completed - a.sign.Completed)
		jobs.den += float64(b.sign.SingleSigns + b.sign.BatchSigns - a.sign.SingleSigns - a.sign.BatchSigns)
	}
	r.set("tpm.signpool.queue_us", "us", q.ratio()/1e3)
	r.set("tpm.signpool.sign_us", "us", s.ratio()/1e3)
	r.set("tpm.signpool.jobs_per_sig_op", "ratio", jobs.ratio())
}

// overheadPct compares the traced window's median with the mean of the
// medians of the untraced windows either side of it.
func overheadPct(traced, before, after time.Duration) float64 {
	base := (float64(before) + float64(after)) / 2
	return 100 * (float64(traced)/base - 1)
}

// ledgerTolerancePct is how far the blocking-path parts of a command may
// sum from its end-to-end median before the ledger counts as failed.
const ledgerTolerancePct = 10

// ledger turns joined guest traces into the dispatch and transport layer
// metrics, and checks that the blocking-path parts of Extend and Quote sum
// to their end-to-end median; the check counts as one operation, failed
// when the gap exceeds ledgerTolerancePct.
func ledger(r *run, gts []*guestTrace) {
	var client, transport, queue, execute, signWait, flush samples
	byOp := map[string][]*opTrace{}
	bad := 0
	for _, gt := range gts {
		gt.join()
		bad += gt.bad
		for _, o := range gt.ops {
			sp, ok := o.split()
			if !ok {
				continue
			}
			client = append(client, sp.client)
			byOp[o.op] = append(byOp[o.op], o)
			for i, x := range o.xmits {
				d := o.disp[i]
				transport = append(transport, frameTransport(x, d))
				queue = append(queue, d.QueueWait)
				execute = append(execute, d.Execute)
				if d.SignWait > 0 {
					signWait = append(signWait, d.SignWait)
				}
				if d.Flush > 0 {
					flush = append(flush, d.Flush)
				}
			}
		}
	}
	r.set("tpm.client.self_us", "us", us(client.pct(0.5)))
	r.set("vtpm.transport.self_us", "us", us(transport.pct(0.5)))
	r.set("vtpm.dispatch.queue_wait_us", "us", us(queue.pct(0.5)))
	r.set("vtpm.dispatch.execute_us", "us", us(execute.pct(0.5)))
	r.set("vtpm.dispatch.sign_wait_us", "us", us(signWait.pct(0.5)))
	r.set("vtpm.dispatch.flush_us", "us", us(flush.pct(0.5)))
	gap := 0.0
	for _, op := range []string{"Extend", "Quote"} {
		ops := byOp[op]
		if len(ops) == 0 {
			continue
		}
		var e2e, c, t, qw, ex, sw, fl samples
		for _, o := range ops {
			sp, _ := o.split()
			e2e = append(e2e, o.end.Sub(o.start))
			c, t, qw = append(c, sp.client), append(t, sp.transport), append(qw, sp.queue)
			ex, sw, fl = append(ex, sp.execute), append(sw, sp.signWait), append(fl, sp.flush)
		}
		sum := c.pct(0.5) + t.pct(0.5) + qw.pct(0.5) + ex.pct(0.5) + sw.pct(0.5) + fl.pct(0.5)
		med := e2e.pct(0.5)
		off := 100 * (float64(sum)/float64(med) - 1)
		fmt.Printf("ledger %-6s n=%d e2e p50 %.2fus = client %.2f + transport %.2f + queue %.2f + execute %.2f + sign_wait %.2f + flush %.2f (sum %.2f, %+.1f%%)\n",
			op, len(ops), us(med), us(c.pct(0.5)), us(t.pct(0.5)), us(qw.pct(0.5)), us(ex.pct(0.5)), us(sw.pct(0.5)), us(fl.pct(0.5)), us(sum), off)
		if off < 0 {
			off = -off
		}
		if off > gap {
			gap = off
		}
	}
	if bad > 0 {
		fmt.Printf("ledger: %d traced commands could not be joined to dispatch spans\n", bad)
	}
	r.set("ledger.gap_pct", "%", gap)
	if gap > ledgerTolerancePct {
		fmt.Fprintf(os.Stderr, "vtpmbench: ledger parts are %.1f%% off the end-to-end median\n", gap)
		r.count(1, 1)
	} else {
		r.count(1, 0)
	}
}

// probeLive times single calls into the xenstore, xen and vtpm layers on
// the live state of r: an empty transaction, a domain build and an
// instance create. Each probe's fixture is torn down untimed.
func probeLive(r *run, rg *rig, profile tpm.Profile) error {
	h := rg.host
	var txn, dom, inst samples
	for i := 0; i < 100; i++ {
		start := time.Now()
		id := h.XS.TxnStart(xen.Dom0)
		if err := h.XS.TxnCommit(xen.Dom0, id); err != nil {
			return fmt.Errorf("xenstore probe: %w", err)
		}
		txn = append(txn, time.Since(start))
	}
	for i := 0; i < 50; i++ {
		start := time.Now()
		d, err := h.HV.CreateDomain(xen.DomainConfig{Name: fmt.Sprintf("probe-%d", i), Kernel: []byte(fmt.Sprintf("probe-kernel-%d", i))})
		if err != nil {
			return fmt.Errorf("domain probe: %w", err)
		}
		dom = append(dom, time.Since(start))
		if err := h.HV.DestroyDomain(xen.Dom0, d.ID()); err != nil {
			return fmt.Errorf("domain probe teardown: %w", err)
		}
	}
	for i := 0; i < 7; i++ {
		start := time.Now()
		id, err := h.Manager.CreateInstanceProfile(profile)
		if err != nil {
			return fmt.Errorf("instance probe: %w", err)
		}
		inst = append(inst, time.Since(start))
		if err := h.Manager.DestroyInstance(id); err != nil {
			return fmt.Errorf("instance probe teardown: %w", err)
		}
	}
	r.set("xenstore.txn_us", "us", us(txn.pct(0.5)))
	r.set("xen.create_domain_us", "us", us(dom.pct(0.5)))
	r.set("vtpm.create_instance_us", "us", us(inst.pct(0.5)))
	rules := 0
	if rg.guard != nil {
		rules = rg.guard.Policy().Len()
	}
	r.set("core.policy.rules", "count", float64(rules))
	return nil
}

// lateness reports the harness's own delay digest.
func lateness(r *run, late *hist) {
	r.set("bench.late_p50_us", "us", us(late.pct(0.5)))
	r.set("bench.late_p99_us", "us", us(late.pct(0.99)))
}
