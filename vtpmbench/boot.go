package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"xvtpm"
	"xvtpm/internal/tpm"
	"xvtpm/internal/workload"
)

// boot-storm: a closed loop of boot sequences on TPM 2.0 guests over a log
// store with eager checkpoints, so every Extend is durable before it
// replies. Each client owns a disjoint set of guests and boots them in
// turn; a boot is bootCmds commands ending in one quote.

// bootFix is a set of TPM 2.0 guests on one host.
type bootFix struct {
	rig    *rig
	guests []*guest20
	tts    []*timedTransport
	list   *bootList
}

func (f *bootFix) close() { f.rig.host.Close() } //nolint:errcheck // teardown of a discarded fixture

// buildBoot boots a host for boot-storm with n TPM 2.0 guests.
func buildBoot(r *run, mode xvtpm.Mode, name string, n int) (*bootFix, error) {
	rg, err := newRig(name, mode, r.spec, r.seed, r.tr)
	if err != nil {
		return nil, err
	}
	return addBootGuests(r, rg, name, n)
}

// addBootGuests creates n TPM 2.0 guests on rg's host, each driven by the
// benchmark's own client, and reads each endorsement key for quote checks.
func addBootGuests(r *run, rg *rig, name string, n int) (*bootFix, error) {
	f := &bootFix{rig: rg, list: newBootList(r.seed)}
	for i := 0; i < n; i++ {
		g, err := rg.host.CreateGuest(xvtpm.GuestConfig{
			Name:    fmt.Sprintf("%s-%02d", name, i),
			Kernel:  []byte(fmt.Sprintf("vmlinuz|%d|%s|%d", r.seed, name, i)),
			Profile: tpm.Profile20,
		})
		if err != nil {
			return nil, err
		}
		tt := rg.attach(g)
		cli := tpm.NewClient2(tt, nil)
		pub, err := cli.ReadPublic()
		if err != nil {
			return nil, fmt.Errorf("guest %d: ReadPublic: %w", i, err)
		}
		f.tts = append(f.tts, tt)
		f.guests = append(f.guests, &guest20{id: i, instance: g.Instance, cli: cli, pub: pub})
	}
	return f, nil
}

// bootOut is what one closed-loop segment produced.
type bootOut struct {
	seg            // per-command latency from the actual send, and boots
	gaps      hist // harness time between a completion and the next send
	attempted int64
	failed    int64
	sigs      []sigCheck
}

// storm runs the clients' boot loops for dur; each client owns the guests
// i with i%clients == k. With traces non-nil every command is traced.
func (f *bootFix) storm(r *run, dur time.Duration, traces []*guestTrace) *bootOut {
	clients := r.spec.Clients
	if clients > len(f.guests) {
		clients = len(f.guests)
	}
	outs := make([]*bootOut, clients)
	start := time.Now()
	stop := start.Add(dur)
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		out := &bootOut{}
		outs[k] = out
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			var owned []int
			for i := k; i < len(f.guests); i += clients {
				owned = append(owned, i)
			}
			var last time.Time
			for b := 0; time.Now().Before(stop); b++ {
				gi := owned[b%len(owned)]
				var gt *guestTrace
				if traces != nil {
					gt = traces[gi]
					gt.start()
				}
				timed := func(op workload.Op, s, d time.Time, err error) {
					if !last.IsZero() {
						out.gaps.add(s.Sub(last))
					}
					last = d
					out.add(op, d.Sub(s), err == nil)
					out.attempted++
					if err != nil {
						out.failed++
					}
					if gt != nil {
						gt.finish(op.String(), s, d)
						gt.start()
					}
				}
				bs := time.Now()
				f.guests[gi].boot(f.list, &out.sigs, timed)
				out.boots.add(time.Since(bs))
			}
		}(k)
	}
	wg.Wait()
	all := &bootOut{}
	all.secs = time.Since(start).Seconds()
	for _, o := range outs {
		all.merge(&o.seg)
		all.gaps.merge(&o.gaps)
		all.attempted += o.attempted
		all.failed += o.failed
		all.sigs = append(all.sigs, o.sigs...)
	}
	all.failed += verifySigs(all.sigs)
	all.sigs = nil
	return all
}

// warm boots every guest once, untimed, so lazy state (sessions, log
// segments) settles before timing.
func (f *bootFix) warm() error {
	var sigs []sigCheck
	var failed int64
	for _, g := range f.guests {
		g.boot(f.list, &sigs, func(_ workload.Op, _, _ time.Time, err error) {
			if err != nil {
				failed++
			}
		})
	}
	if failed += verifySigs(sigs); failed > 0 {
		return fmt.Errorf("boot warm-up: %d failed commands", failed)
	}
	return nil
}

func bootStorm(r *run) error {
	f, setup, err := medianSetup(r.spec.Setups, func() (*bootFix, error) {
		return buildBoot(r, xvtpm.ModeImproved, "boot", r.spec.Guests)
	}, (*bootFix).close)
	if err != nil {
		return err
	}
	defer f.close()
	if err := f.warm(); err != nil {
		return err
	}
	if !r.traced {
		r.set("setup_s", "s", setup)
		var own []*seg
		for i := 0; i < segments; i++ {
			runtime.GC()
			o := f.storm(r, r.window/segments, nil)
			r.count(o.attempted, o.failed)
			own = append(own, &o.seg)
		}
		side, err := sideChurn(r)
		if err != nil {
			return err
		}
		return report(r, own, []*seg{&side.seg})
	}
	third := r.window / 3
	plain := f.storm(r, third, nil)
	r.count(plain.attempted, plain.failed)
	lateness(r, &plain.gaps)

	var reqs atomic.Uint64
	gts := make([]*guestTrace, len(f.guests))
	for i, g := range f.guests {
		gts[i] = newGuestTrace(i, f.rig.host.Manager, g.instance, f.tts[i], r.tr, &reqs)
	}
	f.rig.tap.register(f.rig.host.Manager)
	for _, gt := range gts {
		if err := gt.begin(); err != nil {
			return err
		}
	}
	w := openWindow(f.rig)
	r.tr.on.Store(true)
	tp := f.storm(r, third, gts)
	r.tr.on.Store(false)
	harvestAll(gts)
	w.closeWindow(r, tp.attempted)
	r.count(tp.attempted, tp.failed)
	plain2 := f.storm(r, third, nil)
	r.count(plain2.attempted, plain2.failed)
	ledger(r, gts)
	r.set("bench.tracing_overhead_pct", "%", overheadPct(tp.cmd.pct(0.5), plain.cmd.pct(0.5), plain2.cmd.pct(0.5)))

	if err := f.guardOverhead(r); err != nil {
		return err
	}
	if err := probeLive(r, f.rig, tpm.Profile20); err != nil {
		return err
	}
	return clusterProbe(r)
}

// guardOverhead runs the same boots on two guests of the improved host and
// two of a ModeBaseline twin and reports the command-weighted per-op-class
// median difference.
func (f *bootFix) guardOverhead(r *run) error {
	twin, err := buildBoot(r, xvtpm.ModeBaseline, "twin", 2)
	if err != nil {
		return fmt.Errorf("baseline twin: %w", err)
	}
	defer twin.close()
	// Boots alternate between the two hosts after a forced collection, so
	// a GC cycle or a noisy neighbour lands on both alike.
	const boots = 80
	imp, bas := map[workload.Op]samples{}, map[workload.Op]samples{}
	var sigs []sigCheck
	var failed int64
	runtime.GC()
	for b := 0; b < boots; b++ {
		gs, out := f.guests[:2], imp
		if b%2 == 1 {
			gs, out = twin.guests, bas
		}
		gs[(b/2)%len(gs)].boot(f.list, &sigs, func(op workload.Op, s, d time.Time, err error) {
			if err != nil {
				failed++
			}
			out[op] = append(out[op], d.Sub(s))
		})
	}
	r.count(boots*bootCmds, failed+verifySigs(sigs))
	r.set("core.guard.overhead_us", "us", weightedOverhead(imp, bas))
	return nil
}

// weightedOverhead is the per-op-class median difference, improved minus
// baseline, weighted by each class's command count.
func weightedOverhead(imp, bas map[workload.Op]samples) float64 {
	var sum, n float64
	for _, op := range workload.AllOps {
		s := imp[op]
		if len(s) == 0 || len(bas[op]) == 0 {
			continue
		}
		d := us(s.pct(0.5)) - us(bas[op].pct(0.5))
		fmt.Printf("guard overhead %-9s improved p50 %8.2fus baseline p50 %8.2fus  %+.2fus\n", op, us(s.pct(0.5)), us(bas[op].pct(0.5)), d)
		sum += d * float64(len(s))
		n += float64(len(s))
	}
	return ratio(sum, n)
}
