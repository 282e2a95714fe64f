package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func gateReport(results ...BenchResult) *BenchReport {
	return &BenchReport{Schema: BenchSchema, Bits: 512, Results: results}
}

// TestCompareBenchRegression is the acceptance criterion for the gate: a
// synthetic 20% ns/op regression against a 15% tolerance must fail, and the
// rendered table must say why.
func TestCompareBenchRegression(t *testing.T) {
	base := gateReport(
		BenchResult{Name: "DispatchGetRandom", NsPerOp: 1000, AllocsPerOp: 3},
		BenchResult{Name: "DispatchExtend", NsPerOp: 2000, AllocsPerOp: 6},
	)
	cur := gateReport(
		BenchResult{Name: "DispatchGetRandom", NsPerOp: 1200, AllocsPerOp: 3}, // +20%
		BenchResult{Name: "DispatchExtend", NsPerOp: 2000, AllocsPerOp: 6},
	)
	deltas, ok := CompareBench(base, cur, DefaultBenchTolerance)
	if ok {
		t.Fatal("20% regression passed a 15% gate")
	}
	if len(deltas) != 2 {
		t.Fatalf("got %d deltas, want 2", len(deltas))
	}
	if !deltas[0].Fail || deltas[1].Fail {
		t.Fatalf("wrong benchmark flagged: %+v", deltas)
	}
	if deltas[0].NsRatio < 0.19 || deltas[0].NsRatio > 0.21 {
		t.Fatalf("NsRatio = %v, want ~0.20", deltas[0].NsRatio)
	}
	var buf bytes.Buffer
	RenderBenchDeltas(&buf, deltas)
	out := buf.String()
	if !strings.Contains(out, "FAIL") || !strings.Contains(out, "ns/op +20.0%") {
		t.Fatalf("rendered table missing failure reason:\n%s", out)
	}
}

func TestCompareBenchPassesWithinTolerance(t *testing.T) {
	base := gateReport(
		BenchResult{Name: "DispatchGetRandom", NsPerOp: 1000, AllocsPerOp: 3},
		BenchResult{Name: "SpanRecord", NsPerOp: 10, AllocsPerOp: 0},
	)
	cur := gateReport(
		BenchResult{Name: "DispatchGetRandom", NsPerOp: 1100, AllocsPerOp: 3}, // +10% < 15%
		BenchResult{Name: "SpanRecord", NsPerOp: 9, AllocsPerOp: 0},
		BenchResult{Name: "NewBenchmark", NsPerOp: 50, AllocsPerOp: 1}, // extra is fine
	)
	deltas, ok := CompareBench(base, cur, DefaultBenchTolerance)
	if !ok {
		t.Fatalf("within-tolerance run failed the gate: %+v", deltas)
	}
	for _, d := range deltas {
		if d.Fail {
			t.Fatalf("unexpected failure: %+v", d)
		}
	}
}

func TestCompareBenchAllocGrowthAndMissing(t *testing.T) {
	base := gateReport(
		BenchResult{Name: "DispatchGetRandom", NsPerOp: 1000, AllocsPerOp: 3},
		BenchResult{Name: "DispatchExtend", NsPerOp: 2000, AllocsPerOp: 6},
	)
	cur := gateReport(
		// Faster but allocating more: still a failure.
		BenchResult{Name: "DispatchGetRandom", NsPerOp: 900, AllocsPerOp: 5},
		// DispatchExtend silently dropped: also a failure.
	)
	deltas, ok := CompareBench(base, cur, DefaultBenchTolerance)
	if ok {
		t.Fatal("alloc growth + missing benchmark passed the gate")
	}
	if !deltas[0].Fail || !strings.Contains(deltas[0].Reason, "allocs/op") {
		t.Fatalf("alloc growth not flagged: %+v", deltas[0])
	}
	if !deltas[1].Fail || !deltas[1].Missing {
		t.Fatalf("missing benchmark not flagged: %+v", deltas[1])
	}
}

// TestCompareBenchPipelineRatioGate covers the throughput rows: wall-clock
// ns/op drift on the depth-8 row is exempt from the absolute tolerance, the
// depth-1 row keeps it, and the synthetic GuestPipelineSpeedup row enforces
// that depth 8 is never slower than depth 1 within the current run.
func TestCompareBenchPipelineRatioGate(t *testing.T) {
	base := gateReport(
		BenchResult{Name: benchLockstepName, NsPerOp: 9000, AllocsPerOp: 7},
		BenchResult{Name: benchPipelinedName, NsPerOp: 5500, AllocsPerOp: 8},
	)
	// 3x slower wall clock on the depth-8 row (scheduler noise), still
	// faster than depth 1: the gate must pass.
	cur := gateReport(
		BenchResult{Name: benchLockstepName, NsPerOp: 9000, AllocsPerOp: 7},
		BenchResult{Name: benchPipelinedName, NsPerOp: 8000, AllocsPerOp: 8},
	)
	deltas, ok := CompareBench(base, cur, DefaultBenchTolerance)
	if !ok {
		t.Fatalf("ratio-gated row failed on absolute ns/op drift: %+v", deltas)
	}
	if len(deltas) != 3 {
		t.Fatalf("got %d deltas, want 2 rows + synthetic speedup: %+v", len(deltas), deltas)
	}
	syn := deltas[2]
	if !syn.Synthetic || syn.Name != pipelineSpeedupGate || syn.Fail {
		t.Fatalf("synthetic speedup row wrong: %+v", syn)
	}
	var buf bytes.Buffer
	RenderBenchDeltas(&buf, deltas)
	if out := buf.String(); !strings.Contains(out, pipelineSpeedupGate) || !strings.Contains(out, ratioGatedNote) {
		t.Fatalf("rendered table missing ratio-gate rows:\n%s", out)
	}

	// The depth-1 row is not ratio-gated: 3x slower fails on its own.
	cur = gateReport(
		BenchResult{Name: benchLockstepName, NsPerOp: 27000, AllocsPerOp: 7},
		BenchResult{Name: benchPipelinedName, NsPerOp: 5500, AllocsPerOp: 8},
	)
	deltas, ok = CompareBench(base, cur, DefaultBenchTolerance)
	if ok || !deltas[0].Fail || !strings.Contains(deltas[0].Reason, "ns/op") {
		t.Fatalf("depth-1 regression passed the gate: %+v", deltas)
	}

	// Depth 8 slower than depth 1: the synthetic row alone must fail.
	cur = gateReport(
		BenchResult{Name: benchLockstepName, NsPerOp: 9000, AllocsPerOp: 7},
		BenchResult{Name: benchPipelinedName, NsPerOp: 12000, AllocsPerOp: 8},
	)
	deltas, ok = CompareBench(base, cur, DefaultBenchTolerance)
	if ok {
		t.Fatalf("depth 8 slower than depth 1 passed: %+v", deltas)
	}
	syn = deltas[len(deltas)-1]
	if !syn.Synthetic || !syn.Fail || !strings.Contains(syn.Reason, "lockstep rate") {
		t.Fatalf("speedup failure not on the synthetic row: %+v", deltas)
	}
	for _, d := range deltas[:len(deltas)-1] {
		if d.Fail {
			t.Fatalf("row %s failed; only the synthetic row should: %+v", d.Name, deltas)
		}
	}

	// Alloc growth on a ratio-gated row is still an absolute failure.
	cur = gateReport(
		BenchResult{Name: benchLockstepName, NsPerOp: 9000, AllocsPerOp: 7},
		BenchResult{Name: benchPipelinedName, NsPerOp: 5500, AllocsPerOp: 12},
	)
	if deltas, ok = CompareBench(base, cur, DefaultBenchTolerance); ok {
		t.Fatalf("alloc growth on ratio-gated row passed: %+v", deltas)
	}
}

// TestCompareBenchBlackoutCeilingGate covers the blackout row: relative
// ns/op drift is exempt (a p99 over a few dozen moves is max-like noise),
// and the synthetic MigrateBlackoutCeiling row fails only when the current
// run's p99 crosses the absolute ceiling.
func TestCompareBenchBlackoutCeilingGate(t *testing.T) {
	base := gateReport(
		BenchResult{Name: benchBlackoutName, NsPerOp: 1.0e6},
	)
	// 3x the baseline but far under the ceiling: must pass.
	cur := gateReport(
		BenchResult{Name: benchBlackoutName, NsPerOp: 3.0e6},
	)
	deltas, ok := CompareBench(base, cur, DefaultBenchTolerance)
	if !ok {
		t.Fatalf("ceiling-gated row failed on relative drift: %+v", deltas)
	}
	if len(deltas) != 2 {
		t.Fatalf("got %d deltas, want row + synthetic ceiling: %+v", len(deltas), deltas)
	}
	syn := deltas[1]
	if !syn.Synthetic || syn.Name != blackoutCeilingGate || syn.Fail {
		t.Fatalf("synthetic ceiling row wrong: %+v", syn)
	}
	var buf bytes.Buffer
	RenderBenchDeltas(&buf, deltas)
	if out := buf.String(); !strings.Contains(out, blackoutCeilingGate) || !strings.Contains(out, ceilingGatedNote) {
		t.Fatalf("rendered table missing ceiling-gate rows:\n%s", out)
	}

	// Over the ceiling: the synthetic row alone must fail the gate.
	cur = gateReport(
		BenchResult{Name: benchBlackoutName, NsPerOp: float64(blackoutCeiling) * 2},
	)
	deltas, ok = CompareBench(base, cur, DefaultBenchTolerance)
	if ok {
		t.Fatalf("blackout over the ceiling passed: %+v", deltas)
	}
	syn = deltas[len(deltas)-1]
	if !syn.Synthetic || !syn.Fail || !strings.Contains(syn.Reason, "ceiling") {
		t.Fatalf("ceiling failure not on the synthetic row: %+v", deltas)
	}
}

func TestBenchReportRoundTrip(t *testing.T) {
	rep := gateReport(
		BenchResult{Name: "DispatchGetRandom", NsPerOp: 1234.5, AllocsPerOp: 3, P95Ns: 2048},
	)
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ParseBenchReport(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != 1 || got.Results[0] != rep.Results[0] || got.Bits != 512 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if _, err := ParseBenchReport([]byte(`{"schema":"other/v1","results":[]}`)); err == nil {
		t.Fatal("wrong schema accepted")
	}
	if _, err := ParseBenchReport([]byte(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestRunBenchSuiteSubset exercises the real suite machinery on the two
// cheapest benchmarks so CI covers the measurement path end to end.
func TestRunBenchSuiteSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmarks under -short")
	}
	rep, err := RunBenchSuite(Config{RSABits: 512, Quick: true}, "HistogramRecord", "SpanRecord")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("got %d results, want 2: %+v", len(rep.Results), rep.Results)
	}
	for _, r := range rep.Results {
		if r.NsPerOp <= 0 {
			t.Fatalf("%s: non-positive ns/op %v", r.Name, r.NsPerOp)
		}
		if r.AllocsPerOp != 0 {
			t.Fatalf("%s: hot-path instrument allocates (%v allocs/op)", r.Name, r.AllocsPerOp)
		}
	}
	// Self-comparison always passes.
	if _, ok := CompareBench(rep, rep, 0); !ok {
		t.Fatal("report failed the gate against itself")
	}
}

// TestRunBenchSuiteClusterRows exercises the federation gate rows end to
// end: each must produce a positive per-instance figure with no allocs
// accounting (wall-clock rows).
func TestRunBenchSuiteClusterRows(t *testing.T) {
	rep, err := RunBenchSuite(Config{RSABits: 512, Quick: true},
		"DrainThroughput", "MigrateBlackoutP99", "EvacuateDeadHost")
	if err != nil {
		t.Fatalf("RunBenchSuite: %v", err)
	}
	if len(rep.Results) != 3 {
		t.Fatalf("got %d results, want 3: %+v", len(rep.Results), rep.Results)
	}
	for _, r := range rep.Results {
		if r.NsPerOp <= 0 {
			t.Fatalf("%s reported %v ns/op", r.Name, r.NsPerOp)
		}
	}
}
