package publicoption

import (
	"github.com/netecon-sim/publicoption/internal/experiment"
	"github.com/netecon-sim/publicoption/internal/plot"
	"github.com/netecon-sim/publicoption/internal/sweep"
)

// ExperimentConfig controls a figure reproduction run; the zero value
// reproduces the paper's configuration (seed, 1000-CP ensemble, full grids).
type ExperimentConfig = experiment.Config

// FigureExperiment is one registered reproduction (a paper figure or an
// ablation study).
type FigureExperiment = experiment.Experiment

// ResultTable is a reproduced figure: named series over a common axis.
type ResultTable = sweep.Table

// ResultSeries is one curve of a figure.
type ResultSeries = sweep.Series

// Experiments lists every registered experiment: the paper's Figures 2–5
// and 7–12 plus the ablations (see README.md's figure map), in display
// order.
func Experiments() []*FigureExperiment { return experiment.All() }

// Experiment looks up a registered experiment by ID (e.g. "fig4").
func Experiment(id string) (*FigureExperiment, bool) { return experiment.Get(id) }

// RunExperiment executes the experiment with the config and returns its
// tables. It panics on unknown IDs; use Experiment to probe.
func RunExperiment(id string, cfg ExperimentConfig) []*ResultTable {
	return experiment.MustRun(id, cfg)
}

// RenderChart draws a table as an ASCII line chart (stdlib-only plotting).
func RenderChart(t *ResultTable, width, height int) string { return plot.Chart(t, width, height) }

// RenderText renders a table as aligned columns, subsampled to maxRows
// (0 = all rows).
func RenderText(t *ResultTable, maxRows int) string { return plot.Text(t, maxRows) }
