package experiments

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"strings"

	"microfaas/internal/tsdb"
)

// Params is everything cmd/microfaas-sim can hand an experiment. Every
// row reads RunConfig (-seed, -parallel) and hands it to its experiment
// whole; the rest only reach the rows whose Reads lists the flag that
// sets them.
type Params struct {
	RunConfig
	N      int // -n: invocations per function
	Shards int // -shards: control-plane shard count (0 = the experiment default)
	// SLO (-slo) is a loaded burn-rate rule file; rows that read it print
	// alert timelines.
	SLO     []tsdb.Rule
	Predict bool // -predict: add the forecast-steered arm
	// CSVPath, PromPath and TracePath (-csv, -prom, -trace) name the
	// files fig3's instrumented MicroFaaS run writes ("" = skip).
	CSVPath, PromPath, TracePath string
}

// Renderer runs an experiment and prints its result.
type Renderer func(io.Writer, Params) error

// Experiment is one row of the suite.
type Experiment struct {
	Name    string
	Summary string
	Text    Renderer
	// CSV is the `-format csv` renderer; nil when the row has none.
	CSV Renderer
	// Reads lists the microfaas-sim flags the row's renderers use beyond
	// -seed and -parallel, which every row takes.
	Reads []string
	// InAll marks the rows `all` prints, in table order.
	InAll bool
}

// render adapts a typed experiment — its config built from Params, its run
// function and its writer — to the table's Renderer shape.
func render[C, R any](cfg func(Params) C, run func(C) (R, error), write func(io.Writer, R) error) Renderer {
	return func(w io.Writer, p Params) error {
		res, err := run(cfg(p))
		if err != nil {
			return err
		}
		return write(w, res)
	}
}

// static adapts a writer that takes no parameters at all.
func static(write func(io.Writer) error) Renderer {
	return func(w io.Writer, _ Params) error { return write(w) }
}

func fig3Config(p Params) Fig3Config {
	return Fig3Config{InvocationsPerFunction: p.N, RunConfig: p.RunConfig}
}
func fig4Config(p Params) Fig4Config           { return Fig4Config{RunConfig: p.RunConfig} }
func fig5Config(p Params) Fig5Config           { return Fig5Config{RunConfig: p.RunConfig} }
func loadSweepConfig(p Params) LoadSweepConfig { return LoadSweepConfig{RunConfig: p.RunConfig} }
func keepWarmConfig(p Params) KeepWarmConfig   { return KeepWarmConfig{RunConfig: p.RunConfig} }

// Suite is the experiment list, declared once: cmd/microfaas-sim looks a
// name up here, renders its usage text from here and rejects flags a row
// does not read; `all` walks the InAll rows; cmd/docslint checks every
// documented command against it. Adding an experiment is one row plus
// the file that implements it.
var Suite = []Experiment{
	{Name: "fig1", Summary: "Fig 1: worker-OS boot time by development stage", InAll: true,
		Text: static(WriteFig1)},
	{Name: "table1", Summary: "Table I: the 17-function workload catalogue", InAll: true,
		Text: static(WriteTable1)},
	{Name: "fig3", Summary: "Fig 3: per-function runtime split, 10 SBCs vs 6 VMs", InAll: true,
		Reads: []string{"n", "csv", "prom", "trace"},
		Text:  withFig3Artifacts(render(fig3Config, Fig3, WriteFig3)),
		CSV:   withFig3Artifacts(render(fig3Config, Fig3, WriteFig3CSV))},
	{Name: "fig4", Summary: "Fig 4: conventional efficiency and throughput vs VM count", InAll: true,
		Text: render(fig4Config, Fig4, WriteFig4),
		CSV:  render(fig4Config, Fig4, WriteFig4CSV)},
	{Name: "fig5", Summary: "Fig 5: cluster power vs active workers", InAll: true,
		Text: render(fig5Config, Fig5, WriteFig5),
		CSV:  render(fig5Config, Fig5, WriteFig5CSV)},
	{Name: "headline", Summary: "Sec V headline: func/min and J/func, both clusters", InAll: true,
		Reads: []string{"n"},
		Text: render(func(p Params) HeadlineConfig {
			return HeadlineConfig{InvocationsPerFunction: p.N, RunConfig: p.RunConfig}
		}, Headline, WriteHeadline)},
	{Name: "table2", Summary: "Table II: 5-year single-rack TCO", InAll: true,
		Text: static(WriteTable2)},
	{Name: "rackscale", Summary: "Table II's 989-SBC and 41-server racks, simulated", InAll: true,
		Text: render(func(p Params) RackScaleConfig {
			return RackScaleConfig{RunConfig: p.RunConfig}
		}, RackScale, WriteRackScale)},
	// 10000/989 ≈ 10.1× the Table II sizing, against the
	// throughput-matched 415-server conventional rack.
	{Name: "rackscale10k", Summary: "dispatch scalability: a 10,000-SBC rack vs 415 servers",
		Text: render(func(p Params) RackScaleConfig {
			return RackScaleConfig{SBCs: 10000, Servers: 415, RunConfig: p.RunConfig}
		}, RackScale, WriteRackScale)},
	{Name: "shardedrack", Summary: "sharded control plane: 64 shards x 1100 SBCs, hot-key stealing arms",
		Reads: []string{"shards"},
		Text: render(func(p Params) ShardedRackConfig {
			return ShardedRackConfig{Shards: p.Shards, RunConfig: p.RunConfig}
		}, ShardedRack, WriteShardedRack)},
	{Name: "shardfailover", Summary: "dynamic membership: 4 of 64 shards die mid-run, nothing is lost",
		Reads: []string{"shards", "slo"},
		Text: render(func(p Params) ShardFailoverConfig {
			return ShardFailoverConfig{Shards: p.Shards, RunConfig: p.RunConfig, SLO: p.SLO}
		}, ShardFailover, WriteShardFailover)},
	{Name: "loadsweep", Summary: "energy proportionality under open load, 10-90%", InAll: true,
		Text: render(loadSweepConfig, LoadSweep, WriteLoadSweep),
		CSV:  render(loadSweepConfig, LoadSweep, WriteLoadSweepCSV)},
	{Name: "keepwarm", Summary: "the warm-pool latency/energy trade the paper refuses", InAll: true,
		Text: render(keepWarmConfig, KeepWarm, WriteKeepWarm),
		CSV:  render(keepWarmConfig, KeepWarm, WriteKeepWarmCSV)},
	{Name: "diurnal", Summary: "a 24-hour day replayed: daily energy bills", InAll: true,
		Text: render(func(p Params) DiurnalConfig {
			return DiurnalConfig{RunConfig: p.RunConfig}
		}, Diurnal, WriteDiurnal)},
	{Name: "powermgmt", Summary: "dynamic power manager vs per-job cycling vs always-on", InAll: true,
		Reads: []string{"slo", "predict"},
		Text: render(func(p Params) PowerMgmtConfig {
			return PowerMgmtConfig{RunConfig: p.RunConfig, SLO: p.SLO, Predict: p.Predict}
		}, PowerMgmt, WritePowerMgmt)},
	{Name: "sensitivity", Summary: "the 5.6x verdict under calibration noise (Monte Carlo)", InAll: true,
		Text: render(func(p Params) SensitivityConfig {
			return SensitivityConfig{RunConfig: p.RunConfig}
		}, Sensitivity, WriteSensitivity)},
	{Name: "bootimpact", Summary: "cluster-level value of each Fig 1 boot optimisation", InAll: true,
		Text: render(func(p Params) BootImpactConfig {
			return BootImpactConfig{RunConfig: p.RunConfig}
		}, BootImpact, WriteBootImpact)},
	{Name: "ablations", Summary: "crypto accelerator, gigabit NIC, no reboot between jobs", InAll: true,
		Reads: []string{"n"},
		Text:  renderAblations},
	{Name: "report", Summary: "markdown report of measured-vs-paper values",
		Reads: []string{"n"},
		Text:  WriteReport},
}

// The `all` row renders the rows above it, so it cannot sit in Suite's own
// initialiser: Go rejects the initialisation cycle.
func init() {
	Suite = append(Suite, Experiment{
		Name: "all", Summary: "every row marked *, in that order",
		Reads: []string{"n"},
		Text:  WriteAll})
}

// Lookup returns the row with the given name, or nil.
func Lookup(name string) *Experiment {
	if i := slices.IndexFunc(Suite, func(e Experiment) bool { return e.Name == name }); i >= 0 {
		return &Suite[i]
	}
	return nil
}

// CheckFlag returns an error when the row would silently ignore the
// microfaas-sim flag -name (given value): a flag it does not read, or
// `-format csv` on a row with no CSV renderer. The error names the rows
// that do take it.
func (e *Experiment) CheckFlag(name, value string) error {
	takes := func(e *Experiment) bool {
		return name == "seed" || name == "parallel" || slices.Contains(e.Reads, name) ||
			name == "format" && (value == "text" || value == "csv" && e.CSV != nil)
	}
	if takes(e) {
		return nil
	}
	var takers []string
	for i := range Suite {
		if takes(&Suite[i]) {
			takers = append(takers, Suite[i].Name)
		}
	}
	if name == "format" {
		name += " " + value
	}
	if takers == nil {
		return fmt.Errorf("no experiment takes -%s", name)
	}
	return fmt.Errorf("-%s does not apply to %s; it applies to: %s", name, e.Name, strings.Join(takers, ", "))
}

// WriteSuiteList prints one line per row — `*` if `all` includes it, name,
// summary, the flags it reads — for microfaas-sim's usage text.
func WriteSuiteList(w io.Writer) {
	for _, e := range Suite {
		mark, flags := " ", slices.Clone(e.Reads)
		if e.InAll {
			mark = "*"
		}
		if e.CSV != nil {
			flags = append(flags, "format csv")
		}
		line := fmt.Sprintf("  %s %-14s %s", mark, e.Name, e.Summary)
		if len(flags) > 0 {
			line += "  [-" + strings.Join(flags, " -") + "]"
		}
		fmt.Fprintln(w, line)
	}
}

// WriteAll runs every InAll row of Suite with p (p.N defaults to 100 for
// the fig3/headline/ablation runs) and prints each section in table order,
// separated by blank lines — the `microfaas-sim all` report. Sections
// render concurrently into per-section buffers through p.Parallel's pool,
// and each section fans its own trials/sweep points through the same
// bound, so output is byte-identical at any value.
func WriteAll(w io.Writer, p Params) error {
	if p.N <= 0 {
		p.N = 100
	}
	var sections []Renderer
	for _, e := range Suite {
		if e.InAll {
			sections = append(sections, e.Text)
		}
	}
	// Render every section into its own buffer concurrently, then print in
	// suite order. Two levels of fan-out share the bounded pools: sections
	// here, trials/sweep points inside each section.
	bufs, err := RunParallel(Parallelism(p.Parallel), len(sections), func(i int) (*bytes.Buffer, error) {
		var b bytes.Buffer
		if err := sections[i](&b, p); err != nil {
			return nil, err
		}
		return &b, nil
	})
	if err != nil {
		return err
	}
	out := &printer{w: w}
	for _, b := range bufs {
		out.f("%s\n", b.Bytes())
	}
	return out.err
}
