package harness

import "context"

// Experiment is one named entry of the paper's evaluation: a generator
// that renders its table or figure as text.
type Experiment struct {
	Name string
	Run  func(ctx context.Context) (string, error)
	// cells lists a trace figure's cells, the list its generator
	// renders from, for PlanUnits; nil for the analyses and tlp.
	cells func() []simCell
}

// FindExperiment resolves one experiment of the canonical list by
// name. The second return is false for an unknown name; the server
// validates figure-job requests with it at admission time so a typo is
// a 400 at submit, not a failed job.
func (e *Env) FindExperiment(name string, cores int) (Experiment, bool) {
	for _, x := range e.Experiments(cores) {
		if x.Name == name {
			return x, true
		}
	}
	return Experiment{}, false
}

// Experiments returns the full evaluation in presentation order, each
// experiment rendered by e. Each experiment internally fans its cells
// across e's worker pool (Options.Parallelism).
//
// Every Run installs a Partials collector before generating its figure:
// with Options.CellTimeout set, cells that exceed their deadline degrade
// into zero values and the rendered output ends with a PARTIAL FIGURE
// note naming them. When every cell completes the note is empty, so
// output is byte-identical to a run without deadlines.
func (e *Env) Experiments(cores int) []Experiment {
	// degrade wraps a generator so timed-out cells mark the figure
	// partial instead of failing it.
	degrade := func(f func(ctx context.Context) (string, error)) func(ctx context.Context) (string, error) {
		return func(ctx context.Context) (string, error) {
			if ctx == nil {
				ctx = context.Background()
			}
			ctx, partial := WithPartials(ctx)
			s, err := f(ctx)
			if err != nil {
				return "", err
			}
			return s + partial.Note(), nil
		}
	}
	// fig and panel build a trace figure's entry: its generator and the
	// cell list the generator renders from.
	fig := func(name string, f func(context.Context, int) (*FigureResult, error), cells func(int) []simCell) Experiment {
		return Experiment{name, degrade(func(ctx context.Context) (string, error) {
			r, err := f(ctx, cores)
			if err != nil {
				return "", err
			}
			return r.Format(), nil
		}), func() []simCell { return cells(cores) }}
	}
	panel := func(name, which string) Experiment {
		return Experiment{name, degrade(func(ctx context.Context) (string, error) {
			r, err := e.Figure11(ctx, which)
			if err != nil {
				return "", err
			}
			return r.Format(), nil
		}), func() []simCell { return figure11Cells(which) }}
	}
	return []Experiment{
		fig("fig1", e.Figure1, figure1Cells),
		{"fig2", degrade(func(ctx context.Context) (string, error) {
			r, err := e.Figure2(ctx)
			if err != nil {
				return "", err
			}
			return r.Format(), nil
		}), nil},
		{"fig3", degrade(func(ctx context.Context) (string, error) {
			r, err := e.Figure3(ctx)
			if err != nil {
				return "", err
			}
			return r.Format(), nil
		}), nil},
		{"fig4", degrade(func(ctx context.Context) (string, error) {
			r, err := e.Figure4(ctx)
			if err != nil {
				return "", err
			}
			return r.Format(), nil
		}), nil},
		{"table1", degrade(func(ctx context.Context) (string, error) {
			rows, err := e.Table1(ctx)
			if err != nil {
				return "", err
			}
			return FormatTable1(rows), nil
		}), nil},
		fig("fig7", e.Figure7, figure7Cells),
		fig("fig8", e.Figure8, figure8Cells),
		fig("fig9", e.Figure9, figure9Cells),
		fig("fig10", e.Figure10, figure10Cells),
		panel("fig11a", "cores"),
		panel("fig11b", "link"),
		panel("fig11c", "signals"),
		panel("fig11d", "memory"),
		{"fig12", degrade(func(ctx context.Context) (string, error) {
			rows, err := e.Figure12(ctx, cores)
			if err != nil {
				return "", err
			}
			return FormatFigure12(rows), nil
		}), func() []simCell { return figure12Cells(cores) }},
		{"tlp", degrade(func(ctx context.Context) (string, error) {
			r, err := e.TLP(ctx)
			if err != nil {
				return "", err
			}
			return r.Format(), nil
		}), nil},
	}
}
