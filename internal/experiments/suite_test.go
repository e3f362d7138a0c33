package experiments

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"microfaas/internal/cluster"
	"microfaas/internal/model"
	"microfaas/internal/telemetry"
	"microfaas/internal/tracing"
)

// TestSuiteRendersIdenticallyAtAnyPoolSize walks the table and renders
// serially and on an eight-wide pool, comparing bytes, every renderer no
// other byte-level test reaches: each CSV renderer, and the text of rows
// outside `all` (TestDeterminismWriteAll byte-compares the text of the
// rows inside it, and rendering a 24-hour diurnal day four more times
// costs a minute under -race). The typed TestDeterminism* tests stay:
// DeepEqual on result structs checks fields the renderers do not print.
func TestSuiteRendersIdenticallyAtAnyPoolSize(t *testing.T) {
	// Full-size only: these three have dedicated reduced-size determinism
	// tests, and `all` is TestDeterminismWriteAll.
	skip := map[string]bool{"rackscale10k": true, "shardedrack": true, "shardfailover": true, "all": true}
	for _, e := range Suite {
		if skip[e.Name] {
			continue
		}
		renderers := map[string]Renderer{"csv": e.CSV}
		if !e.InAll {
			renderers["text"] = e.Text
		}
		for format, render := range renderers {
			if render == nil {
				continue
			}
			t.Run(e.Name+"/"+format, func(t *testing.T) {
				var serial, wide bytes.Buffer
				if err := render(&serial, Params{N: 10, RunConfig: RunConfig{Seed: detSeed, Parallel: 1}}); err != nil {
					t.Fatal(err)
				}
				if err := render(&wide, Params{N: 10, RunConfig: RunConfig{Seed: detSeed, Parallel: 8}}); err != nil {
					t.Fatal(err)
				}
				if serial.Len() == 0 {
					t.Fatal("rendered nothing")
				}
				if !bytes.Equal(serial.Bytes(), wide.Bytes()) {
					t.Errorf("Parallel 1 and 8 differ:\n%s\n---\n%s", serial.String(), wide.String())
				}
			})
		}
	}
}

// TestSuiteIsWellFormed: names are unique, every row renders text and says
// what it is, and `all` and the heavy rows stay out of `all` (its section
// order is pinned byte for byte by unsharded_golden.txt).
func TestSuiteIsWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Suite {
		if seen[e.Name] {
			t.Errorf("%s is declared twice", e.Name)
		}
		seen[e.Name] = true
		if e.Text == nil || e.Summary == "" {
			t.Errorf("%s needs a text renderer and a summary", e.Name)
		}
		if Lookup(e.Name) == nil || Lookup(e.Name).Name != e.Name {
			t.Errorf("Lookup(%q) does not find the row", e.Name)
		}
	}
	for _, name := range []string{"all", "report", "rackscale10k", "shardedrack", "shardfailover"} {
		if e := Lookup(name); e == nil || e.InAll {
			t.Errorf("%s must be a row outside `all`", name)
		}
	}
	if Lookup("nosuch") != nil {
		t.Error("Lookup invents rows")
	}
}

// TestFig3ArtifactsMatchSingleInstrumentRuns: the one run that carries
// both telemetry and a tracer writes, file for file, what three separate
// runs — bare, telemetry only, tracer only — write.
func TestFig3ArtifactsMatchSingleInstrumentRuns(t *testing.T) {
	dir := t.TempDir()
	p := Params{N: 20, RunConfig: RunConfig{Seed: detSeed, Parallel: 1},
		CSVPath: filepath.Join(dir, "a.csv"), PromPath: filepath.Join(dir, "b.prom"), TracePath: filepath.Join(dir, "c.json")}
	if err := Lookup("fig3").Text(io.Discard, p); err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New()
	tr := tracing.NewWithConfig(tracing.Config{Seed: p.Seed, MaxTraces: 1 << 20})
	for path, run := range map[string]struct {
		cfg   cluster.SimConfig
		write func(*cluster.Sim, io.Writer) error
	}{
		p.CSVPath:   {cluster.SimConfig{}, func(s *cluster.Sim, w io.Writer) error { return s.Orch.Collector().WriteCSV(w) }},
		p.PromPath:  {cluster.SimConfig{Telemetry: tel}, func(_ *cluster.Sim, w io.Writer) error { return tel.Registry().WritePrometheus(w) }},
		p.TracePath: {cluster.SimConfig{Tracer: tr}, func(_ *cluster.Sim, w io.Writer) error { return tracing.WriteChromeTrace(w, tr.Traces()) }},
	} {
		run.cfg.Seed = p.Seed
		s, err := cluster.NewMicroFaaSSim(model.SBCCount, run.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.RunSuite(p.N, nil); err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := run.write(s, &want); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if want.Len() == 0 || !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s (%d bytes) differs from the single-instrument run (%d bytes)", filepath.Base(path), len(got), want.Len())
		}
	}
}
