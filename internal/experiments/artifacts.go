package experiments

import (
	"fmt"
	"io"
	"os"

	"microfaas/internal/cluster"
	"microfaas/internal/model"
	"microfaas/internal/telemetry"
	"microfaas/internal/trace"
)

// withFig3Artifacts runs render, then writes the files Params names.
func withFig3Artifacts(render Renderer) Renderer {
	return func(w io.Writer, p Params) error {
		if err := render(w, p); err != nil {
			return err
		}
		return writeFig3Artifacts(p)
	}
}

// writeFig3Artifacts re-runs fig3's MicroFaaS cluster once, with telemetry
// attached, and writes whichever files were asked for: the raw
// per-invocation trace as CSV; the end-of-run registry in Prometheus text
// format — the exposition a live gateway's /metrics serves, frozen at
// drain time; and every job's trace, rendered from the records, in Chrome
// trace_event format — load it in chrome://tracing or Perfetto to see the
// queue→boot→exec timeline per worker. Telemetry does not perturb the
// run, so each file is what a run without it would write.
func writeFig3Artifacts(p Params) error {
	if p.CSVPath == "" && p.PromPath == "" && p.TracePath == "" {
		return nil
	}
	tel := telemetry.New()
	s, err := cluster.NewMicroFaaSSim(model.SBCCount, cluster.SimConfig{Seed: p.Seed, Telemetry: tel})
	if err != nil {
		return err
	}
	coll, err := s.RunSuite(p.N, nil)
	if err != nil {
		return err
	}
	traces := trace.Traces(coll)
	for _, f := range []struct {
		path  string
		write func(io.Writer) error
		wrote string
	}{
		{p.CSVPath, coll.WriteCSV, fmt.Sprintf("%d records", coll.Len())},
		{p.PromPath, tel.Registry().WritePrometheus, "metrics snapshot"},
		{p.TracePath, func(w io.Writer) error { return trace.WriteChromeTrace(w, traces) }, fmt.Sprintf("%d traces", len(traces))},
	} {
		if f.path == "" {
			continue
		}
		if err := writeFile(f.path, f.write); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s to %s\n", f.wrote, f.path)
	}
	return nil
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
