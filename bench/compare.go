package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json that -compare applies.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// setupFloorS widens setup_s's allowance to an absolute 50 ms: set-up of
// the small systems takes tens of milliseconds, where a share alone would
// flag scheduler noise.
const setupFloorS = 0.05

// exactLayers are simulator outputs that are a pure function of the seed:
// between two runs of one seed any difference is a behaviour change.
var exactLayers = []string{"joules_per_func", "func_per_min", "sim_p99_s", "shard.stolen_share"}

func readResult(path string) (resultFile, error) {
	var f resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// runCompare prints, per workload row, how each end-to-end metric of the
// second result file stands against the first: better, within bound, worse,
// or unresolved when the runs' own spread is wider than the bound. It
// returns an error when anything is worse.
func runCompare(w io.Writer, specPath string, files []string) error {
	if len(files) != 2 {
		return fmt.Errorf("-compare takes two result files, got %d", len(files))
	}
	var spec benchSpec
	data, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	base, err := readResult(files[0])
	if err != nil {
		return err
	}
	cur, err := readResult(files[1])
	if err != nil {
		return err
	}
	if base.Env.Seed != cur.Env.Seed {
		fmt.Fprintf(w, "note: seeds differ (%d vs %d): exact simulator outputs are not comparable\n", base.Env.Seed, cur.Env.Seed)
	}
	names := make([]string, 0, len(base.EndToEnd))
	for n := range base.EndToEnd {
		names = append(names, n)
	}
	sort.Strings(names)
	worse := 0
	row := func(workload, metric, unit string, b bound, lowerBetter bool, bv, cv []float64) {
		v := verdict(b, lowerBetter, bv, cv)
		if v == "worse" {
			worse++
		}
		fmt.Fprintf(w, "%-13s %-20s %14.4f -> %14.4f %-8s spread %5.1f%% / %5.1f%%  %s\n",
			workload, metric, summarize(bv).Median, summarize(cv).Median, unit, 100*spread(bv), 100*spread(cv), v)
	}
	for _, name := range names {
		b, c := base.EndToEnd[name], cur.EndToEnd[name]
		if c.Metrics == nil {
			return fmt.Errorf("%s has no workload %q", files[1], name)
		}
		for _, m := range spec.EndToEnd {
			bd := bound{Share: m.Bound}
			if m.Name == "setup_s" {
				bd.AbsFloor = setupFloorS
			}
			row(name, m.Name, m.Unit, bd, m.Better == "lower", b.Metrics[m.Name].Trials, c.Metrics[m.Name].Trials)
		}
		row(name, "failed_share", "ratio", bound{}, true, []float64{b.FailedShare}, []float64{c.FailedShare})
		bl, cl := base.PerLayer[name], cur.PerLayer[name]
		for _, m := range exactLayers {
			// A live workload reports these as 0 (not its layer): no row.
			if bm, ok := bl.Metrics[m]; ok && bm.Value != 0 && base.Env.Seed == cur.Env.Seed {
				row(name, m, bm.Unit, bound{Exact: true}, true, bm.Trials, cl.Metrics[m].Trials)
			}
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse than the bound allows", worse)
	}
	return nil
}
