package sim

import (
	"fmt"

	"viewmat/internal/costmodel"
	"viewmat/internal/figures"
)

// SweepPoint is one measured grid point: the model-scope average cost
// per query for each strategy at one update probability.
type SweepPoint struct {
	P          float64
	Measured   map[string]float64 // strategy → scope ms/query
	Model      map[string]float64 // strategy → analytic ms/query
	WholeSys   map[string]float64 // strategy → whole-system ms/query
	QueriesRun int
}

// SweepP replays the workload at several update probabilities (holding
// q fixed, adjusting k — exactly how the figures vary P) and measures
// each strategy. It is the engine-side regeneration of the P-axis
// figures (1 and 5).
func SweepP(model Model, base costmodel.Params, ps []float64, seed int64) ([]SweepPoint, error) {
	out := make([]SweepPoint, 0, len(ps))
	for _, pv := range ps {
		params := base.WithP(pv)
		point := SweepPoint{
			P:        pv,
			Measured: map[string]float64{},
			Model:    map[string]float64{},
			WholeSys: map[string]float64{},
		}
		for _, st := range PaperStrategies {
			res, err := Run(Config{Model: model, Strategy: st, Params: params, Seed: seed})
			if err != nil {
				return nil, fmt.Errorf("sim: sweep P=%v %v: %w", pv, st, err)
			}
			point.Measured[st.String()] = res.ModelScopeAvg
			point.Model[st.String()] = res.Model
			point.WholeSys[st.String()] = res.AvgPerQuery
			point.QueriesRun = res.Queries
		}
		out = append(out, point)
	}
	return out, nil
}

// SweepL replays the Model-3 workload at several per-transaction
// update sizes — the engine-side regeneration of Figure 8's x-axis.
func SweepL(base costmodel.Params, ls []float64, seed int64) ([]SweepPoint, error) {
	out := make([]SweepPoint, 0, len(ls))
	for _, l := range ls {
		params := base
		params.L = l
		point := SweepPoint{
			P:        l, // x-value; callers label the axis
			Measured: map[string]float64{},
			Model:    map[string]float64{},
			WholeSys: map[string]float64{},
		}
		for _, st := range PaperStrategies {
			res, err := Run(Config{Model: Model3, Strategy: st, Params: params, Seed: seed})
			if err != nil {
				return nil, fmt.Errorf("sim: sweep l=%v %v: %w", l, st, err)
			}
			point.Measured[st.String()] = res.ModelScopeAvg
			point.Model[st.String()] = res.Model
			point.WholeSys[st.String()] = res.AvgPerQuery
			point.QueriesRun = res.Queries
		}
		out = append(out, point)
	}
	return out, nil
}

// MeasuredFigure renders a sweep as a figure: one measured series per
// strategy plus the analytic prediction alongside, so the measured and
// model curves can be compared in one table.
func MeasuredFigure(id, title, xlabel string, points []SweepPoint) *figures.Figure {
	fig := &figures.Figure{
		ID:     id,
		Title:  title,
		XLabel: xlabel,
		YLabel: "scope ms/query (measured) and model ms/query",
	}
	if len(points) == 0 {
		return fig
	}
	strategies := []string{"query-modification", "immediate", "deferred"}
	for _, st := range strategies {
		s := figures.Series{Name: st + " (measured)"}
		for _, pt := range points {
			s.X = append(s.X, pt.P)
			s.Y = append(s.Y, pt.Measured[st])
		}
		fig.Series = append(fig.Series, s)
	}
	for _, st := range strategies {
		s := figures.Series{Name: st + " (model)"}
		for _, pt := range points {
			s.X = append(s.X, pt.P)
			s.Y = append(s.Y, pt.Model[st])
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}
