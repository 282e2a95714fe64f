package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"xvtpm/internal/loadgen"
	"xvtpm/internal/workload"
)

// seg is one segment of a measured window: segments run back to back, each
// after a forced collection and with freshly started issuers. Metrics are
// taken over the pooled segments; each segment's own value is printed
// beside them, which shows drift within a run. Every distribution is a
// fixed-size histogram, so the harness's memory does not grow with
// throughput and the peak RSS stays the program's.
type seg struct {
	secs            float64 // segment length
	cmd, cheap, rsa hist    // guest command latency
	good            int64   // commands that succeeded within their SLO
	boots           hist
	create, migrate hist
	blackout        hist
	cycles          int64
}

// segments is how many back-to-back segments a measured window runs as.
const segments = 5

// add records one guest command.
func (s *seg) add(op workload.Op, lat time.Duration, ok bool) {
	s.cmd.add(lat)
	if isCheap(op) {
		s.cheap.add(lat)
	}
	if usesPrivateKey(op) {
		s.rsa.add(lat)
	}
	if ok && lat <= loadgen.DefaultSLO[op] {
		s.good++
	}
}

// merge adds another issuer's records for the same segment.
func (s *seg) merge(o *seg) {
	s.cmd.merge(&o.cmd)
	s.cheap.merge(&o.cheap)
	s.rsa.merge(&o.rsa)
	s.good += o.good
	s.boots.merge(&o.boots)
	s.create.merge(&o.create)
	s.migrate.merge(&o.migrate)
	s.blackout.merge(&o.blackout)
	s.cycles += o.cycles
}

func isCheap(op workload.Op) bool {
	return op == workload.OpGetRandom || op == workload.OpExtend || op == workload.OpPCRRead
}

func usesPrivateKey(op workload.Op) bool {
	return op == workload.OpQuote || op == workload.OpSign || op == workload.OpUnseal
}

// pool merges segments into one covering their whole time.
func pool(segs []*seg) *seg {
	all := &seg{}
	for _, s := range segs {
		all.merge(s)
		all.secs += s.secs
	}
	return all
}

// report sets every end-to-end metric but setup_s and rss_peak_mb, each
// over the whole of the workload's own segments when they measure it,
// else over its side probe's (see spec.json, "side_probes"). Each
// segment's own value is printed beside it.
func report(r *run, own, side []*seg) error {
	defs := []struct {
		name, unit string
		has        func(*seg) bool
		val        func(*seg) float64
	}{
		{"cmd_p50_us", "us", func(s *seg) bool { return s.cmd.n > 0 }, func(s *seg) float64 { return us(s.cmd.pct(0.5)) }},
		{"cmd_p99_us", "us", func(s *seg) bool { return s.cmd.n > 0 }, func(s *seg) float64 { return us(s.cmd.pct(0.99)) }},
		{"cmd_per_s", "cmd/s", func(s *seg) bool { return s.cmd.n > 0 }, func(s *seg) float64 { return float64(s.cmd.n) / s.secs }},
		{"cheap_p99_us", "us", func(s *seg) bool { return s.cheap.n > 0 }, func(s *seg) float64 { return us(s.cheap.pct(0.99)) }},
		{"rsa_p99_us", "us", func(s *seg) bool { return s.rsa.n > 0 }, func(s *seg) float64 { return us(s.rsa.pct(0.99)) }},
		// A closed loop's capacity within SLO is its goodput.
		{"max_rate_cps", "cmd/s", func(s *seg) bool { return s.cmd.n > 0 }, func(s *seg) float64 { return float64(s.good) / s.secs }},
		{"boot_ms_p99", "ms", func(s *seg) bool { return s.boots.n > 0 }, func(s *seg) float64 { return ms(s.boots.pct(0.99)) }},
		{"create_ms_p50", "ms", func(s *seg) bool { return s.create.n > 0 }, func(s *seg) float64 { return ms(s.create.pct(0.5)) }},
		{"create_ms_p99", "ms", func(s *seg) bool { return s.create.n > 0 }, func(s *seg) float64 { return ms(s.create.pct(0.99)) }},
		{"migrate_ms_p99", "ms", func(s *seg) bool { return s.migrate.n > 0 }, func(s *seg) float64 { return ms(s.migrate.pct(0.99)) }},
		{"blackout_ms_p99", "ms", func(s *seg) bool { return s.blackout.n > 0 }, func(s *seg) float64 { return ms(s.blackout.pct(0.99)) }},
		{"cycles_per_s", "1/s", func(s *seg) bool { return s.cycles > 0 }, func(s *seg) float64 { return float64(s.cycles) / s.secs }},
	}
	ownAll, sideAll := pool(own), pool(side)
	for _, d := range defs {
		segs, all := own, ownAll
		if !d.has(all) {
			segs, all = side, sideAll
		}
		if !d.has(all) {
			return fmt.Errorf("%s: no measurement for %s", r.name, d.name)
		}
		var vals []float64
		for _, s := range segs {
			if d.has(s) {
				vals = append(vals, d.val(s))
			}
		}
		v := d.val(all)
		fmt.Printf("segments %-16s %s | window %.4g\n", d.name, strings.Trim(fmt.Sprintf("%.4g", vals), "[]"), v)
		r.set(d.name, d.unit, v)
	}
	return nil
}

// sideBoots measures boots on a workload's side-probe guests, in
// back-to-back segments like the main windows.
func sideBoots(r *run, f *bootFix) []*seg {
	var out []*seg
	for i := 0; i < segments; i++ {
		runtime.GC()
		b := f.storm(r, sideBootTime/segments, nil)
		r.count(b.attempted, b.failed)
		out = append(out, &b.seg)
	}
	return out
}

// Side-probe sizes: fixed wall-clock budgets, the same for every workload.
const (
	sideBootTime  = 4 * time.Second
	sideChurnWarm = 2 * time.Second
	sideChurnTime = 12 * time.Second
)

// sideChurn measures the churn cycle on a small cluster with no resident
// fleet, for workloads whose own scenario has no cluster. Its cycles make
// one segment, after untimed ones let the fresh cluster settle.
func sideChurn(r *run) (*churnOut, error) {
	c, err := buildCluster(r, 512, 0, 0)
	if err != nil {
		return nil, fmt.Errorf("side churn: %w", err)
	}
	defer c.Close() //nolint:errcheck // end of probe
	if warm := churn(r, c, sideChurnWarm, "side-warm", nil); warm.failed > 0 {
		return nil, fmt.Errorf("side churn warm-up: %d failed operations", warm.failed)
	}
	runtime.GC()
	o := churn(r, c, sideChurnTime, "side", nil)
	o.tally(r)
	return o, nil
}
