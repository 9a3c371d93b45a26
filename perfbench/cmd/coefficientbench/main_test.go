package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/flexray-go/coefficient/internal/serve"
)

// TestMain runs the tests from the repository root, where the benchmark
// itself runs.
func TestMain(m *testing.M) {
	if err := os.Chdir(filepath.Join("..", "..", "..")); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// quickRun executes one short run and fails the test on any error or
// failed check.
func quickRun(t *testing.T, workload string, trace bool) *bench {
	t.Helper()
	cfg := config{workload: workload, seed: 3, seconds: 1, trace: trace, buildDir: t.TempDir(), quick: true}
	b, err := execute(cfg, io.Discard, io.Discard)
	if err != nil {
		t.Fatalf("%s trace=%t: %v", workload, trace, err)
	}
	if b.failed != 0 || b.attempted == 0 {
		t.Fatalf("%s trace=%t: %d of %d operations failed", workload, trace, b.failed, b.attempted)
	}
	return b
}

// checkEmitted asserts that b carries exactly the metrics of want, each
// with its catalog unit.
func checkEmitted(t *testing.T, b *bench, want []metricSpec) {
	t.Helper()
	if len(b.metrics) != len(want) {
		t.Errorf("emitted %d metrics, want %d", len(b.metrics), len(want))
	}
	for _, m := range want {
		got, ok := b.metrics[m.Name]
		if !ok {
			t.Errorf("metric %s missing", m.Name)
			continue
		}
		if got.Unit != m.Unit {
			t.Errorf("metric %s: unit %q, want %q", m.Name, got.Unit, m.Unit)
		}
	}
}

func TestEveryWorkloadEmitsEveryEndToEndMetric(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			b := quickRun(t, name, false)
			checkEmitted(t, b, endToEnd)
			for _, m := range endToEnd {
				if b.metrics[m.Name].Value <= 0 {
					t.Errorf("metric %s = %v, want > 0", m.Name, b.metrics[m.Name].Value)
				}
			}
		})
	}
}

func TestTracedRunEmitsEveryLayerMetricAndRepeatsExactCounters(t *testing.T) {
	first := quickRun(t, "fig5-mc", true)
	checkEmitted(t, first, perLayer)
	for _, w := range []string{"fig5", "sweep"} {
		var sum float64
		for _, pkg := range cpuPackages {
			sum += first.metrics["cpu_share."+w+"."+pkg].Value
		}
		if sum <= 0 || sum > 1+1e-9 {
			t.Errorf("cpu shares of %s sum to %v, want (0, 1]", w, sum)
		}
	}
	second := quickRun(t, "daemon-mixed", true)
	for name := range exactCounters {
		if a, b := first.metrics[name].Value, second.metrics[name].Value; a != b {
			t.Errorf("exact counter %s: %v then %v", name, a, b)
		}
	}
}

func TestGateFailsOnTamperedReference(t *testing.T) {
	refs, err := loadReferences()
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{log: io.Discard, metrics: map[string]metric{}}
	gateQuickSweep(b, refs, 1)
	if b.failed != 0 {
		t.Fatalf("gate failed %d checks on the committed tables", b.failed)
	}

	rows := refs["wcrt"].(map[string]any)["rows"].([]any)
	row := rows[0].(map[string]any)
	for k, v := range row {
		row[k] = v.(string) + "0"
		break
	}
	b = &bench{log: io.Discard, metrics: map[string]metric{}}
	gateQuickSweep(b, refs, 1)
	if b.failed != 1 {
		t.Fatalf("gate failed %d checks on one tampered table, want 1", b.failed)
	}
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want []metricSpec
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, catalog %d", c.name, len(c.got), len(c.want))
		}
		for i := range c.want {
			if c.got[i] != c.want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, catalog %+v", c.name, i, c.got[i], c.want[i])
			}
		}
	}
}

func TestTail(t *testing.T) {
	small := []float64{3, 1, 2}
	if v, pct := tail(small); v != 3 || pct != 100 {
		t.Errorf("tail of 3 samples = %v (p%v), want the max", v, pct)
	}
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	if v, pct := tail(xs); v != 90 || pct != 90 {
		t.Errorf("tail of 1..100 = %v (p%v), want 90 (p90): ten samples beyond", v, pct)
	}
	if q := quantile(xs, 0.9); q != 90 {
		t.Errorf("0.9-quantile of 1..100 = %v, want 90", q)
	}
}

func TestAdjustedScalesByTheSuitesMedianTime(t *testing.T) {
	suites := []time.Duration{2 * refSuite, refSuite / 2, 2 * refSuite}
	if got := adjusted(50, suites); got != 100 {
		t.Errorf("50/s beside a suite at half the reference speed = %v, want 100", got)
	}
	tables, err := newSuiteTables()
	if err != nil {
		t.Fatal(err)
	}
	if d := tables.run(); d <= 0 {
		t.Errorf("suite took %v", d)
	}
	if err := tables.close(); err != nil {
		t.Fatal(err)
	}
}

func TestSimulatedComparesEverythingButTheJobID(t *testing.T) {
	enc := func(jobID, table string) []byte {
		t.Helper()
		data, err := json.Marshal(serve.Result{Hash: "h", JobID: jobID, Table: table})
		if err != nil {
			t.Fatal(err)
		}
		got, err := simulated(data)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	if !bytes.Equal(enc("j1-h", "t"), enc("j7-h", "t")) {
		t.Error("results that differ only in the job ID compare unequal")
	}
	if bytes.Equal(enc("j1-h", "t"), enc("j1-h", "u")) {
		t.Error("results with different tables compare equal")
	}
}
