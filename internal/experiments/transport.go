package experiments

// E15: the transport pipeline study (DESIGN.md §9). One improved-mode guest
// is driven by 8 concurrent submitters at pipeline depths 1..8 under the
// same modelled event-channel delivery cost the throughput gate uses
// (benchEventLatency). Depth 1 is the /dev/tpm0 discipline: one command on
// the ring at a time, the other submitters taking turns for the pending
// table's one slot. Deeper pipelines overlap round trips, so the backend
// drains multi-frame batches per wakeup and the RING_FINAL_CHECK handshake
// suppresses most doorbells. Every depth runs the same transmit path, so
// the sweep isolates what overlap buys; a doorbell that is actually sent
// costs the modelled latency plus the timer's sleep granularity, which
// dominates whichever depth pays for it. Reported per depth: inverse
// throughput, guest RTT percentiles, mean request frames per backend drain,
// and doorbells actually sent per command.

import (
	"fmt"
	"sync"
	"time"

	"xvtpm"
	"xvtpm/internal/metrics"
)

// E15Row is one pipeline depth's measurement.
type E15Row struct {
	Depth     int
	NsPerCmd  float64 // wall time / completed commands, 8 submitters
	RTTp50    time.Duration
	RTTp95    time.Duration
	RTTp99    time.Duration
	MeanBatch float64 // request frames per backend drain
	// NotifiesPerCmd is doorbells actually delivered per command (both
	// directions); SuppressedFrac is the share of would-be doorbells the
	// ring notify flags coalesced away.
	NotifiesPerCmd float64
	SuppressedFrac float64
}

// E15Result is the experiment outcome.
type E15Result struct {
	EventLatency time.Duration
	Rows         []E15Row
	// Speedup is depth-8 commands/sec over depth-1.
	Speedup float64
}

// e15Measure runs one depth configuration and returns its row.
func e15Measure(cfg Config, depth, cmds int) (E15Row, error) {
	h, err := newHost(cfg, xvtpm.ModeImproved, func(hc *xvtpm.HostConfig) {
		hc.PipelineDepth = depth
		hc.EventLatency = benchEventLatency
	})
	if err != nil {
		return E15Row{}, err
	}
	defer h.Close() //nolint:errcheck // measurement teardown
	g, err := h.CreateGuest(xvtpm.GuestConfig{Name: "e15", Kernel: []byte("e15k")})
	if err != nil {
		return E15Row{}, err
	}
	for i := 0; i < 50; i++ { // warm codec, scratch and response buffers
		if _, err := g.TPM.GetRandom(16); err != nil {
			return E15Row{}, err
		}
	}

	const workers = 8
	ec := h.HV.EventChannels()
	sent0, supp0 := ec.SentNotifies(), ec.SuppressedNotifies()
	per := cmds / workers
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := g.TPM.GetRandom(16); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	close(errs)
	for err := range errs {
		return E15Row{}, err
	}

	total := float64(workers * per)
	sent := float64(ec.SentNotifies() - sent0)
	supp := float64(ec.SuppressedNotifies() - supp0)
	rtt := h.TransportMetrics().GuestRTT.Summarize()
	batch := h.TransportMetrics().RingBatch.Summarize()
	row := E15Row{
		Depth:          depth,
		NsPerCmd:       float64(wall.Nanoseconds()) / total,
		RTTp50:         rtt.P50,
		RTTp95:         rtt.P95,
		RTTp99:         rtt.P99,
		NotifiesPerCmd: sent / total,
	}
	if batch.Count > 0 {
		// RingBatch records the frame count of each drain as an integer
		// Duration, so the histogram mean is the mean batch size.
		row.MeanBatch = float64(batch.Mean)
	}
	if sent+supp > 0 {
		row.SuppressedFrac = supp / (sent + supp)
	}
	return row, nil
}

// E15Transport sweeps the pipeline depth and reports how batching and
// doorbell suppression convert per-command notify cost into per-batch cost.
func E15Transport(cfg Config) (E15Result, error) {
	cmds := cfg.reps(4000, 400)
	res := E15Result{EventLatency: benchEventLatency}
	for _, depth := range []int{1, 2, 4, 8} {
		row, err := e15Measure(cfg, depth, cmds)
		if err != nil {
			return E15Result{}, fmt.Errorf("E15 depth %d: %w", depth, err)
		}
		res.Rows = append(res.Rows, row)
	}
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	if last.NsPerCmd > 0 {
		res.Speedup = first.NsPerCmd / last.NsPerCmd
	}
	if cfg.Out != nil {
		rows := make([][]string, 0, len(res.Rows))
		for _, r := range res.Rows {
			rows = append(rows, []string{
				fmt.Sprintf("%d", r.Depth),
				fmt.Sprintf("%.0f", r.NsPerCmd),
				metrics.Micros(r.RTTp50),
				metrics.Micros(r.RTTp95),
				metrics.Micros(r.RTTp99),
				fmt.Sprintf("%.2f", r.MeanBatch),
				fmt.Sprintf("%.2f", r.NotifiesPerCmd),
				fmt.Sprintf("%.0f%%", r.SuppressedFrac*100),
			})
		}
		metrics.Table(cfg.Out,
			fmt.Sprintf("E15: transport pipeline, 8 submitters, %s modelled doorbell latency (GetRandom)",
				res.EventLatency),
			[]string{"depth", "ns/cmd", "rtt p50 µs", "rtt p95 µs", "rtt p99 µs",
				"frames/drain", "notifies/cmd", "suppressed"}, rows)
		fmt.Fprintf(cfg.Out, "\ndepth-8 speedup over depth 1: %.2fx\n\n", res.Speedup)
	}
	return res, nil
}
