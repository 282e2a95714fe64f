// Command vtpmbench is the repository's benchmark. It runs one named
// workload against the vTPM stack from a single process, checks every
// output against references it computes itself, and prints the
// end-to-end metrics (--trace 0) or the per-layer ledger (--trace 1) as
// the last line of its output, one JSON object.
//
// Run from the repository root:
//
//	bash vtpmbench/run.sh --workload boot-storm --seed 1 --seconds 30 --trace 0
//
// Workload parameters (fleet sizes, key sizes, stores) are fixed in
// spec.json, compiled in; nothing is calibrated against the code under test.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// procs is the GOMAXPROCS every workload runs with. On a 2-vCPU VM a
// 2-P run settled for the process's whole life into one of two schedules
// (boot-storm: about 9 or 16 us per command), so runs of unchanged code
// spread by up to 60%; on one P they repeat within a few percent. The
// benchmark therefore measures per-command CPU and handoff cost, not
// parallel speed-up.
const procs = 1

//go:embed spec.json
var specJSON []byte

// workloadSpec is one workload's fixed inputs (spec.json documents the
// rest of each entry).
type workloadSpec struct {
	Clients  int    `json:"clients"`
	Guests   int    `json:"guests"`
	Profile  string `json:"profile"`
	KeyBits  int    `json:"key_bits"`
	Store    string `json:"store"`
	Resident int    `json:"resident_guests,omitempty"`
	Attached int    `json:"attached_residents,omitempty"`
	Setups   int    `json:"setups"`
}

type specFile struct {
	Workloads map[string]workloadSpec `json:"workloads"`
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is one invocation's settings plus what the workload reports back.
type run struct {
	name    string
	spec    workloadSpec
	seed    int64
	window  time.Duration
	traced  bool
	metrics map[string]metric

	attempted, failed int64
	tr                *tracer
}

func (r *run) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// count adds to the operation tally.
func (r *run) count(attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
}

var workloads = map[string]func(*run) error{
	"boot-storm":  bootStorm,
	"fleet-churn": fleetChurn,
}

func main() {
	name := flag.String("workload", "", "workload to run: boot-storm or fleet-churn")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 30, "measured seconds")
	traceOn := flag.Int("trace", 0, "1 prints the per-layer ledger instead of end-to-end metrics")
	flag.Parse()
	if err := mainErr(*name, *seed, *seconds, *traceOn == 1); err != nil {
		fmt.Fprintln(os.Stderr, "vtpmbench:", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed int64, seconds int, traced bool) error {
	var sf specFile
	if err := json.Unmarshal(specJSON, &sf); err != nil {
		return fmt.Errorf("spec.json: %w", err)
	}
	fn, ok := workloads[name]
	ws, ok2 := sf.Workloads[name]
	if !ok || !ok2 {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be positive")
	}
	runtime.GOMAXPROCS(procs)
	r := &run{
		name: name, spec: ws, seed: seed, window: time.Duration(seconds) * time.Second,
		traced: traced, metrics: map[string]metric{}, tr: &tracer{},
	}
	if err := fn(r); err != nil {
		return err
	}
	if !traced {
		peak, err := rssPeakMB()
		if err != nil {
			return err
		}
		r.set("rss_peak_mb", "MiB", peak)
	} else if err := r.tr.dump(fmt.Sprintf(".bench_build/trace/%s-seed%d.jsonl", name, seed)); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	names := make([]string, 0, len(r.metrics))
	for k := range r.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-40s %14.4f %s\n", k, r.metrics[k].Value, r.metrics[k].Unit)
	}
	fmt.Printf("attempted %d failed %d\n", r.attempted, r.failed)
	out, err := json.Marshal(result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
