package main

import (
	"crypto/sha1"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"xvtpm"
	"xvtpm/internal/cluster"
	"xvtpm/internal/tpm"
	"xvtpm/internal/vtpm"
	"xvtpm/internal/workload"
)

// fleet-churn: a closed loop on a 2-member cluster holding a resident
// fleet. One goroutine cycles create on h0 → first command → Migrate to h1
// → destroy; the other drives a cluster.Session Extend stream on the guest
// being moved and checks its PCR chain across the handoff.

// buildCluster boots a 2-member cluster with keys of bits and places
// resident guests alternately on both members, two at a time. All but the
// first attached residents have their vTPM device detached once created:
// an attached idle device's backend polls every 2 ms (vtpm driverWaitPoll),
// and a thousand of them saturate two CPUs and swamp every other effect.
// The attached share keeps that polling cost in the measurement.
func buildCluster(r *run, bits, resident, attached int) (*cluster.Cluster, error) {
	// Every instance a member ever hosts keeps its checkpoint mirror and
	// exchange buffer in the member's dom0 arena, which never frees; a
	// resident fleet plus a run of churn needs more than the default.
	dom0 := 0
	if resident > 0 {
		dom0 = 1 << 15
	}
	c, err := cluster.New(cluster.Config{
		Hosts:     2,
		Mode:      xvtpm.ModeImproved,
		RSABits:   bits,
		Seed:      []byte(fmt.Sprintf("vtpmbench|%d", r.seed)),
		Dom0Pages: dom0,
	})
	if err != nil {
		return nil, err
	}
	err = forClients(r.spec.Clients, resident, func(i int) error {
		host := fmt.Sprintf("h%d", i%2)
		g, err := c.CreateGuestOn(host, xvtpm.GuestConfig{
			Name:   fmt.Sprintf("resident-%05d", i),
			Kernel: []byte(fmt.Sprintf("vmlinuz|%d|resident|%d", r.seed, i)),
			Pages:  16,
		})
		if err != nil || i < attached {
			return err
		}
		m, _ := c.Member(host)
		return m.Host.Backend.DetachDevice(g.Dom.ID())
	})
	if err != nil {
		c.Close() //nolint:errcheck // unwinding a failed build
		return nil, err
	}
	return c, nil
}

// churnFix is a provisioned fleet-churn cluster: the resident fleet, a
// witness guest on h1 that quotes once per cycle, and two TPM 2.0 guests on
// h0 for the boot side probe.
type churnFix struct {
	c       *cluster.Cluster
	witness *guest12
	boots   *bootFix
	rigs    []*rig
}

func (f *churnFix) close() { f.c.Close() } //nolint:errcheck // teardown

func buildChurn(r *run) (*churnFix, error) {
	c, err := buildCluster(r, r.spec.KeyBits, r.spec.Resident, r.spec.Attached)
	if err != nil {
		return nil, err
	}
	f := &churnFix{c: c}
	for _, m := range c.Members() {
		g, _ := m.Host.ImprovedGuard()
		f.rigs = append(f.rigs, &rig{host: m.Host, guard: g, tap: entryTap{}, tr: r.tr})
	}
	wg, err := c.CreateGuestOn("h1", xvtpm.GuestConfig{Name: "witness", Kernel: []byte("vmlinuz-witness"), Pages: 16})
	if err != nil {
		return nil, err
	}
	if f.witness, err = prepare12(tpm.NewClient(f.rigs[1].attach(wg), nil), r.seed, 0, r.spec.KeyBits); err != nil {
		return nil, err
	}
	if f.boots, err = addBootGuests(r, f.rigs[0], "boot", 2); err != nil {
		return nil, err
	}
	return f, nil
}

// extRec is one session Extend as the guest saw it.
type extRec struct {
	start, end time.Time
	ok         bool
}

// moved is what the Extend stream reports after a guest's move.
type moved struct {
	recs      []extRec
	ref       [tpm.DigestSize]byte
	redirects uint64
	verifyErr error
}

// churnOut is one churn segment's results.
type churnOut struct {
	seg                             // guest commands (first commands, Extends, witness quotes) and cycles
	harness           hist          // Extend stream: completion to next send
	cmds              int64         // guest commands
	attempted, failed int64         // operations: guest commands plus create, migrate, destroy
	redirects         uint64        // fence redirects the sessions followed
	prog              blackoutTotal // the cluster's own blackout histogram, this segment
	sigs              []sigCheck
}

// postMoveExtends is how many Extends the stream issues on the new owner
// once a move has returned. How many land during the move itself is a race
// between the stream and the handoff; a fixed tail of settled commands per
// cycle keeps the stream's command count and median from following it.
const postMoveExtends = 16

// churnWarm is how long fleet-churn cycles untimed before its window.
const churnWarm = 8 * time.Second

// churn runs create → first command → migrate → destroy cycles until dur
// passes. With a witness, each cycle also quotes once on it.
func churn(r *run, c *cluster.Cluster, dur time.Duration, tag string, witness *guest12) *churnOut {
	out := &churnOut{}
	keys := make(chan string)
	started := make(chan struct{})
	results := make(chan moved)
	var stopExt atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the Extend stream
		defer wg.Done()
		for key := range keys {
			sess := c.Session(key)
			var m moved
			after := 0
			for j := 0; ; j++ {
				if j > 0 && stopExt.Load() {
					if after == postMoveExtends {
						break
					}
					after++
				}
				d := sha1.Sum([]byte(fmt.Sprintf("churn|%d|%s|%d", r.seed, key, j)))
				s := time.Now()
				v, err := sess.Extend(10, d)
				e := time.Now()
				m.ref = extend1(m.ref, d[:])
				m.recs = append(m.recs, extRec{start: s, end: e, ok: err == nil && v == m.ref})
				if j == 0 {
					started <- struct{}{}
				}
			}
			m.verifyErr = sess.Verify()
			m.redirects = sess.Redirects
			results <- m
		}
	}()

	h1, _ := c.Member("h1")
	bo0 := blackoutTotals(c)
	start := time.Now()
	for i := 0; time.Since(start) < dur; i++ {
		key := fmt.Sprintf("%s-%06d", tag, i)
		out.attempted += 3 // create, migrate, destroy
		t0 := time.Now()
		g, err := c.CreateGuestOn("h0", xvtpm.GuestConfig{
			Name:   key,
			Kernel: []byte(fmt.Sprintf("vmlinuz|%d|%s", r.seed, key)),
			Pages:  16,
		})
		if err != nil {
			out.failed += 3
			continue
		}
		cli := tpm.NewClient(&timedTransport{inner: g.Frontend, tr: r.tr}, nil)
		s1 := time.Now()
		rnd, err := cli.GetRandom(16)
		t1 := time.Now()
		ok := err == nil && len(rnd) == 16
		out.add(workload.OpGetRandom, t1.Sub(s1), ok)
		out.cmds++
		out.attempted++
		if !ok {
			out.failed++
		} else {
			out.create.add(t1.Sub(t0))
		}

		stopExt.Store(false)
		keys <- key
		<-started
		m0 := time.Now()
		merr := c.Migrate(key, "h1")
		m1 := time.Now()
		stopExt.Store(true)
		m := <-results
		out.cmds += int64(len(m.recs))
		out.attempted += int64(len(m.recs))
		var worst time.Duration
		for j, x := range m.recs {
			if j > 0 {
				out.harness.add(x.start.Sub(m.recs[j-1].end))
			}
			out.add(workload.OpExtend, x.end.Sub(x.start), x.ok)
			if !x.ok {
				out.failed++
			}
			if x.start.Before(m1) && x.end.After(m0) && x.end.Sub(x.start) > worst {
				worst = x.end.Sub(x.start)
			}
		}
		out.redirects += m.redirects
		if merr != nil {
			out.failed++
		} else {
			out.migrate.add(m1.Sub(m0))
			out.blackout.add(worst)
		}
		// The moved guest's whole PCR bank must match the reference: PCR 10
		// carries the session's chain, every other register its reset value.
		if m.verifyErr != nil || !digestMatches(c, h1, key, m.ref) {
			out.failed++
		}
		if witness != nil {
			s := time.Now()
			done, err := witness.step(workload.OpQuote, &out.sigs)
			out.add(workload.OpQuote, done.Sub(s), err == nil)
			out.cmds++
			out.attempted++
			if err != nil {
				out.failed++
			}
		}
		if err := c.DestroyGuest(key); err != nil {
			out.failed++
		}
		out.cycles++
	}
	out.secs = time.Since(start).Seconds()
	bo1 := blackoutTotals(c)
	out.prog = blackoutTotal{sum: bo1.sum - bo0.sum, n: bo1.n - bo0.n}
	close(keys)
	wg.Wait()
	return out
}

// digestMatches compares the owner's PCR digest with the reference bank.
func digestMatches(c *cluster.Cluster, h1 *cluster.Member, key string, pcr10 [tpm.DigestSize]byte) bool {
	owner, g, err := c.Owner(key)
	if err != nil || owner != h1.Name {
		return false
	}
	got, err := h1.Host.InstancePCRDigest(g.Instance)
	if err != nil {
		return false
	}
	h := sha1.New()
	var zero [tpm.DigestSize]byte
	for i := 0; i < tpm.NumPCRs; i++ {
		if i == 10 {
			h.Write(pcr10[:])
		} else {
			h.Write(zero[:])
		}
	}
	var want [tpm.DigestSize]byte
	copy(want[:], h.Sum(nil))
	return got == want
}

func (o *churnOut) tally(r *run) { r.count(o.attempted, o.failed+verifySigs(o.sigs)) }

func fleetChurn(r *run) error {
	f, setup, err := medianSetup(r.spec.Setups, func() (*churnFix, error) { return buildChurn(r) }, (*churnFix).close)
	if err != nil {
		return err
	}
	defer f.close()
	// Untimed cycles first: a fresh fleet runs faster, by a share that
	// differs from process to process, for its first few seconds of churn.
	if warm := churn(r, f.c, churnWarm, "warm", f.witness); warm.failed > 0 {
		return fmt.Errorf("fleet-churn warm-up: %d failed operations", warm.failed)
	}
	if !r.traced {
		r.set("setup_s", "s", setup)
		var own []*seg
		for i := 0; i < segments; i++ {
			runtime.GC()
			o := churn(r, f.c, r.window/segments, fmt.Sprintf("churn%d", i), f.witness)
			o.tally(r)
			own = append(own, &o.seg)
		}
		return report(r, own, sideBoots(r, f.boots))
	}
	third := r.window / 3
	plain := churn(r, f.c, third, "plain", f.witness)
	plain.tally(r)
	ck0 := checkpointTotals(f.c)
	w := openWindow(f.rigs...)
	r.tr.on.Store(true)
	tp := churn(r, f.c, third, "traced", f.witness)
	r.tr.on.Store(false)
	w.closeWindow(r, tp.cmds)
	tp.tally(r)
	ck1 := checkpointTotals(f.c)
	plain2 := churn(r, f.c, third, "plain2", f.witness)
	plain2.tally(r)
	// The cluster builds its members' stores itself, so store traffic is
	// read from the managers' checkpoint counters instead of a decorator.
	r.set("vtpm.store.puts_per_cmd", "count", ratio(float64(ck1.Checkpoints-ck0.Checkpoints), float64(tp.cmds)))
	r.set("vtpm.store.bytes_per_cmd", "B", ratio(float64(ck1.BytesWritten-ck0.BytesWritten), float64(tp.cmds)))
	setClusterLayer(r, tp)
	r.set("bench.tracing_overhead_pct", "%", overheadPct(tp.create.pct(0.5), plain.create.pct(0.5), plain2.create.pct(0.5)))
	lateness(r, &plain.harness)

	h0, _ := f.c.Member("h0")
	if err := probeStorePut(r, h0.Host); err != nil {
		return err
	}
	if err := probeLive(r, f.rigs[0], tpm.Profile12); err != nil {
		return err
	}
	return ledgerProbe(r, f.rigs[0])
}

// checkpointTotals sums the members' checkpoint counters.
func checkpointTotals(c *cluster.Cluster) vtpm.CheckpointStats {
	var t vtpm.CheckpointStats
	for _, m := range c.Members() {
		s := m.Host.Manager.CheckpointStats()
		t.Checkpoints += s.Checkpoints
		t.BytesWritten += s.BytesWritten
	}
	return t
}

// blackoutTotal is the cluster's own blackout histogram's sum and count.
type blackoutTotal struct {
	sum time.Duration
	n   uint64
}

func blackoutTotals(c *cluster.Cluster) blackoutTotal {
	s := c.ClusterStats().Blackout
	return blackoutTotal{sum: s.Sum, n: s.Count}
}

// setClusterLayer reports the cluster layer from a churn window: migrate
// duration, fence redirects followed per move, and the program's own
// blackout histogram (its mean, beside the guest-visible p99).
func setClusterLayer(r *run, o *churnOut) {
	r.set("cluster.migrate_us", "us", us(o.migrate.pct(0.5)))
	r.set("cluster.session.redirects_per_migrate", "count", ratio(float64(o.redirects), float64(o.migrate.n)))
	r.set("cluster.blackout_us", "us", ratio(float64(o.prog.sum), float64(o.prog.n))/1e3)
}

// clusterProbe reports the cluster layer from the side churn probe, for
// workloads that never touch the cluster layer themselves.
func clusterProbe(r *run) error {
	o, err := sideChurn(r)
	if err != nil {
		return err
	}
	setClusterLayer(r, o)
	return nil
}

// probeStorePut times Puts of a checkpoint-sized blob through a member's
// fenced store into the shared log, on the live fleet.
func probeStorePut(r *run, h *xvtpm.Host) error {
	blob := make([]byte, 4096)
	var d samples
	for i := 0; i < 200; i++ {
		name := fmt.Sprintf("vtpmbench-probe-%03d", i%8)
		start := time.Now()
		if err := h.Store.Put(name, blob); err != nil {
			return fmt.Errorf("store probe: %w", err)
		}
		d = append(d, time.Since(start))
	}
	for i := 0; i < 8; i++ {
		if err := h.Store.Delete(fmt.Sprintf("vtpmbench-probe-%03d", i)); err != nil {
			return fmt.Errorf("store probe teardown: %w", err)
		}
	}
	r.set("vtpm.store.put_us", "us", us(d.pct(0.5)))
	return nil
}

// ledgerProbeOps sizes the ledger probe's stream: about 200 quotes.
const ledgerProbeOps = 4000

// ledgerProbe provisions one guest on the live member with the benchmark's
// own traced client and runs a closed-loop DefaultMix stream through it,
// for the guest-command layers of the ledger.
func ledgerProbe(r *run, rg *rig) error {
	g, err := rg.host.CreateGuest(xvtpm.GuestConfig{Name: "ledger-probe", Kernel: []byte("vmlinuz-ledger-probe"), Pages: 16})
	if err != nil {
		return err
	}
	defer rg.host.DestroyGuest(g) //nolint:errcheck // end of probe
	tt := rg.attach(g)
	g12, err := prepare12(tpm.NewClient(tt, nil), r.seed, 0, r.spec.KeyBits)
	if err != nil {
		return err
	}
	g12.instance = g.Instance
	w := openWindow(rg)
	var reqs atomic.Uint64
	gt := newGuestTrace(0, rg.host.Manager, g.Instance, tt, r.tr, &reqs)
	rg.tap.register(rg.host.Manager)
	if err := gt.begin(); err != nil {
		return err
	}
	mix := mixFor(r.seed, 4)
	var sigs []sigCheck
	var failed int64
	r.tr.on.Store(true)
	for i := 0; i < ledgerProbeOps; i++ {
		op := mix.Next()
		gt.start()
		t0 := time.Now()
		done, err := g12.step(op, &sigs)
		gt.finish(op.String(), t0, done)
		if err != nil {
			failed++
		}
	}
	r.tr.on.Store(false)
	gt.harvest()
	// The churn window has no signing traffic; the pool's figures come
	// from this stream's quotes and signs.
	w.signLayer(r)
	r.count(ledgerProbeOps, failed+verifySigs(sigs))
	ledger(r, []*guestTrace{gt})
	return guardOverhead12(r, []*guest12{g12})
}
