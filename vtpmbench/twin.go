package main

import (
	"fmt"
	"runtime"
	"time"

	"xvtpm"
	"xvtpm/internal/tpm"
	"xvtpm/internal/workload"
)

// build12 boots a host of the given mode and provisions n TPM 1.2 guests,
// owned, each with a loaded signing key and a sealed secret.
func build12(r *run, mode xvtpm.Mode, name string, n int) (*rig, []*guest12, error) {
	rg, err := newRig(name, mode, r.spec, r.seed, r.tr)
	if err != nil {
		return nil, nil, err
	}
	var gs []*guest12
	for i := 0; i < n; i++ {
		g, err := rg.host.CreateGuest(xvtpm.GuestConfig{
			Name:    fmt.Sprintf("%s-%02d", name, i),
			Kernel:  []byte(fmt.Sprintf("vmlinuz|%d|%d", r.seed, i)),
			Profile: tpm.Profile12,
		})
		if err != nil {
			rg.host.Close() //nolint:errcheck // unwinding a failed build
			return nil, nil, err
		}
		g12, err := prepare12(tpm.NewClient(rg.attach(g), nil), r.seed, i, r.spec.KeyBits)
		if err != nil {
			rg.host.Close() //nolint:errcheck // unwinding a failed build
			return nil, nil, err
		}
		g12.instance = g.Instance
		gs = append(gs, g12)
	}
	return rg, gs, nil
}

// guardOverhead12 replays one closed-loop DefaultMix stream on the given
// guests of the improved host and on two guests of a ModeBaseline twin,
// and reports the command-weighted per-op-class median difference: the
// paper's E1, live.
func guardOverhead12(r *run, imp []*guest12) error {
	twin, bas, err := build12(r, xvtpm.ModeBaseline, "twin", 2)
	if err != nil {
		return fmt.Errorf("baseline twin: %w", err)
	}
	defer twin.host.Close() //nolint:errcheck // end of probe
	mix := mixFor(r.seed, 3)
	stream := make([]workload.Op, 3000)
	for i := range stream {
		stream[i] = mix.Next()
	}
	// Both sides run the same stream in alternating blocks after a forced
	// collection, so a GC cycle or a noisy neighbour lands on both alike.
	impS, basS := map[workload.Op]samples{}, map[workload.Op]samples{}
	var sigs []sigCheck
	var failed int64
	runtime.GC()
	const block = 100
	for b := 0; b < len(stream); b += block {
		for side, gs := range [][]*guest12{imp, bas} {
			out := impS
			if side == 1 {
				out = basS
			}
			for i := b; i < b+block && i < len(stream); i++ {
				start := time.Now()
				done, err := gs[i%len(gs)].step(stream[i], &sigs)
				if err != nil {
					failed++
				}
				out[stream[i]] = append(out[stream[i]], done.Sub(start))
			}
		}
	}
	r.count(2*int64(len(stream)), failed+verifySigs(sigs))
	r.set("core.guard.overhead_us", "us", weightedOverhead(impS, basS))
	return nil
}
