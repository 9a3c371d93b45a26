package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"github.com/flexray-go/coefficient/internal/experiment"
)

// runExperiment runs one paper experiment exactly as the CLI's `all`
// does (default flags, fig5 at one replica) and renders its table.
func runExperiment(name string, seed uint64, quick bool, parallel int) (experiment.Table, error) {
	switch name {
	case "fig1", "fig2":
		sc, title := experiment.BER7(), "Figure 1: running time (BER-7)"
		if name == "fig2" {
			sc, title = experiment.BER9(), "Figure 2: running time (BER-9)"
		}
		rows, err := experiment.RunningTime(experiment.RunningTimeOptions{Scenario: sc, Seed: seed, Quick: quick, Parallel: parallel})
		return experiment.RunningTimeTable(title, rows), err
	case "fig3":
		rows, err := experiment.Utilization(experiment.UtilizationOptions{Seed: seed, Quick: quick, Parallel: parallel})
		return experiment.UtilizationTable(rows), err
	case "fig4":
		rows, err := experiment.Latency(experiment.LatencyOptions{Seed: seed, Quick: quick, Parallel: parallel})
		return experiment.LatencyTable(rows), err
	case "fig4a":
		rows, err := experiment.FrameLatency(experiment.FrameLatencyOptions{Seed: seed, Quick: quick, Parallel: parallel})
		return experiment.FrameLatencyTable(rows), err
	case "fig5":
		rows, err := missRatio(seed, 1, parallel, quick)
		return experiment.MissTable(rows), err
	case "ablation":
		rows, err := experiment.Ablations(experiment.AblationOptions{Seed: seed, Quick: quick, Parallel: parallel})
		return experiment.AblationTable(rows), err
	case "synthesis":
		rows, err := experiment.Synthesis(experiment.SynthesisOptions{Seed: seed})
		return experiment.SynthesisTable(rows), err
	case "wcrt":
		rows, err := experiment.WCRT(experiment.WCRTOptions{Seed: seed})
		return experiment.WCRTTable(rows), err
	case "degradation":
		rows, err := experiment.Degradation(experiment.DegradationOptions{Seed: seed, Quick: quick, Parallel: parallel})
		return experiment.DegradationTable(rows), err
	case "timing":
		rows, err := experiment.TimingFault(experiment.TimingFaultOptions{
			Seed: seed, Quick: quick, DriftPPM: 100, Guardians: "both", Parallel: parallel,
		})
		return experiment.TimingFaultTable(rows), err
	}
	return experiment.Table{}, fmt.Errorf("unknown experiment %q", name)
}

// sweep runs every experiment once and returns the rendered tables,
// with each experiment's wall time.
func sweep(seed uint64, quick bool, parallel int) ([]string, []time.Duration, error) {
	tables := make([]string, len(sweepExperiments))
	times := make([]time.Duration, len(sweepExperiments))
	for i, name := range sweepExperiments {
		t0 := time.Now()
		tbl, err := runExperiment(name, seed, quick, parallel)
		times[i] = time.Since(t0)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", name, err)
		}
		tables[i] = tbl.String()
	}
	return tables, times, nil
}

// referenceTable loads the table committed in results/BENCH_<name>.json
// (a quick sweep at seed 1) in its header-keyed JSON form.
func referenceTable(name string) (any, error) {
	data, err := os.ReadFile(filepath.Join("results", "BENCH_"+name+".json"))
	if err != nil {
		return nil, err
	}
	var doc struct {
		Quick bool   `json:"quick"`
		Seed  uint64 `json:"seed"`
		Table any    `json:"table"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("BENCH_%s.json: %w", name, err)
	}
	if !doc.Quick || doc.Seed != 1 {
		return nil, fmt.Errorf("BENCH_%s.json is not a quick seed-1 table", name)
	}
	return doc.Table, nil
}

// tableJSON renders a table the way the committed BENCH files store it
// (cmd/coefficientsim's -bench output), round-tripped through JSON.
func tableJSON(tbl experiment.Table) (any, error) {
	rows := make([]map[string]string, 0, len(tbl.Rows))
	for _, r := range tbl.Rows {
		obj := make(map[string]string, len(tbl.Header))
		for i, h := range tbl.Header {
			if i < len(r) {
				obj[h] = r[i]
			}
		}
		rows = append(rows, obj)
	}
	data, err := json.Marshal(map[string]any{"title": tbl.Title, "rows": rows})
	if err != nil {
		return nil, err
	}
	var out any
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// gateQuickSweep runs the quick sweep at seed 1 and checks every table
// against its committed reference.
func gateQuickSweep(b *bench, refs map[string]any, parallel int) {
	for _, name := range sweepExperiments {
		tbl, err := runExperiment(name, 1, true, parallel)
		if !b.op(err) {
			continue
		}
		got, err := tableJSON(tbl)
		if b.op(err) {
			b.check(reflect.DeepEqual(got, refs[name]),
				"quick %s table at seed 1 differs from results/BENCH_%s.json", name, name)
		}
	}
}

// loadReferences reads every committed reference table.
func loadReferences() (map[string]any, error) {
	refs := make(map[string]any, len(sweepExperiments))
	for _, name := range sweepExperiments {
		ref, err := referenceTable(name)
		if err != nil {
			return nil, err
		}
		refs[name] = ref
	}
	return refs, nil
}
