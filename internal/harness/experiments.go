package harness

import "context"

// Experiment is one named entry of the paper's evaluation: a generator
// that renders its table or figure as text.
type Experiment struct {
	Name string
	Run  func(ctx context.Context) (string, error)
}

// FindExperiment resolves one experiment of the canonical list by
// name. The second return is false for an unknown name; the server
// validates figure-job requests with it at admission time so a typo is
// a 400 at submit, not a failed job.
func FindExperiment(name string, cores int) (Experiment, bool) {
	for _, e := range Experiments(cores) {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Experiments returns the full evaluation in presentation order. Each
// experiment internally fans its cells across the engine's worker pool
// (SetParallelism).
//
// Every Run installs a Partials collector before generating its figure:
// with SetCellTimeout active, cells that exceed their deadline degrade
// into zero values and the rendered output ends with a PARTIAL FIGURE
// note naming them. When every cell completes the note is empty, so
// output is byte-identical to a run without deadlines.
func Experiments(cores int) []Experiment {
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
	fig := func(f func(context.Context, int) (*FigureResult, error)) func(ctx context.Context) (string, error) {
		return degrade(func(ctx context.Context) (string, error) {
			r, err := f(ctx, cores)
			if err != nil {
				return "", err
			}
			return r.Format(), nil
		})
	}
	panel := func(which string) func(ctx context.Context) (string, error) {
		return degrade(func(ctx context.Context) (string, error) {
			r, err := Figure11(ctx, which)
			if err != nil {
				return "", err
			}
			return r.Format(), nil
		})
	}
	return []Experiment{
		{"fig1", fig(Figure1)},
		{"fig2", degrade(func(ctx context.Context) (string, error) {
			r, err := Figure2(ctx)
			if err != nil {
				return "", err
			}
			return r.Format(), nil
		})},
		{"fig3", degrade(func(ctx context.Context) (string, error) {
			r, err := Figure3(ctx)
			if err != nil {
				return "", err
			}
			return r.Format(), nil
		})},
		{"fig4", degrade(func(ctx context.Context) (string, error) {
			r, err := Figure4(ctx)
			if err != nil {
				return "", err
			}
			return r.Format(), nil
		})},
		{"table1", degrade(func(ctx context.Context) (string, error) {
			rows, err := Table1(ctx)
			if err != nil {
				return "", err
			}
			return FormatTable1(rows), nil
		})},
		{"fig7", fig(Figure7)},
		{"fig8", fig(Figure8)},
		{"fig9", fig(Figure9)},
		{"fig10", fig(Figure10)},
		{"fig11a", panel("cores")},
		{"fig11b", panel("link")},
		{"fig11c", panel("signals")},
		{"fig11d", panel("memory")},
		{"fig12", degrade(func(ctx context.Context) (string, error) {
			rows, err := Figure12(ctx, cores)
			if err != nil {
				return "", err
			}
			return FormatFigure12(rows), nil
		})},
		{"tlp", degrade(func(ctx context.Context) (string, error) {
			r, err := TLP(ctx)
			if err != nil {
				return "", err
			}
			return r.Format(), nil
		})},
	}
}
