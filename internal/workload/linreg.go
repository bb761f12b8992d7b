package workload

import (
	"fmt"
	"strconv"
	"strings"

	"nostop/internal/broker"
	"nostop/internal/linalg"
	"nostop/internal/rng"
)

// linRegDim is the feature dimensionality of the synthetic regression stream.
const linRegDim = 5

// hidden coefficients (plus intercept 2.0) used by the generator.
var linRegTruth = [linRegDim]float64{3.0, -1.5, 0.7, 2.2, -0.4}

const linRegIntercept = 2.0

// LinearRegression is the paper's Streaming Linear Regression workload. It
// maintains sufficient statistics (XᵀX, Xᵀy) across batches and re-solves
// the normal equations each batch — a realistic streaming least-squares.
type LinearRegression struct {
	model *CostModel
	xtx   *linalg.Matrix // (dim+1) x (dim+1), includes intercept column
	xty   linalg.Vector
	n     int64
	beta  linalg.Vector
}

// NewLinearRegression returns a fresh workload with empty statistics.
func NewLinearRegression() *LinearRegression {
	d := linRegDim + 1
	return &LinearRegression{
		model: &CostModel{
			Name:            "LinearRegression",
			RecordCost:      0.00005,
			InitBase:        0.5,
			PerExecOverhead: 0.10,
			IOWeight:        0.1,
			NoiseCV:         0.08,
			IterInitial:     1.8,
			IterTau:         25,
			IterJitter:      0.12,
		},
		xtx: linalg.NewMatrix(d, d),
		xty: linalg.NewVector(d),
	}
}

// Name implements Workload.
func (w *LinearRegression) Name() string { return "LinearRegression" }

// Model implements Workload.
func (w *LinearRegression) Model() *CostModel { return w.model }

// RateBand implements Workload (§6.2.2: [80000, 120000] records/second).
func (w *LinearRegression) RateBand() (float64, float64) { return 80000, 120000 }

// GenValue synthesises "y,x1,...,x5" with y = 2 + β·x + N(0, 0.5).
func (w *LinearRegression) GenValue(i int64, r *rng.Stream) string {
	var sb strings.Builder
	y := linRegIntercept
	feats := make([]float64, linRegDim)
	for d := 0; d < linRegDim; d++ {
		feats[d] = r.Norm(0, 1)
		y += feats[d] * linRegTruth[d]
	}
	y += r.Norm(0, 0.5)
	sb.WriteString(strconv.FormatFloat(y, 'f', 4, 64))
	for d := 0; d < linRegDim; d++ {
		sb.WriteByte(',')
		sb.WriteString(strconv.FormatFloat(feats[d], 'f', 4, 64))
	}
	return sb.String()
}

// ProcessBatch parses points, accumulates normal-equation statistics, and
// solves for the coefficients. Reports batch MSE under the updated model.
func (w *LinearRegression) ProcessBatch(recs []broker.Record) Result {
	d := linRegDim + 1
	type point struct {
		y float64
		x [linRegDim + 1]float64
	}
	var pts []point
	for _, rec := range recs {
		fields := strings.Split(rec.Value, ",")
		if len(fields) != linRegDim+1 {
			continue
		}
		var p point
		p.x[0] = 1 // intercept
		ok := true
		for i, f := range fields {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				ok = false
				break
			}
			if i == 0 {
				p.y = v
			} else {
				p.x[i] = v
			}
		}
		if ok {
			pts = append(pts, p)
		}
	}
	if len(pts) == 0 {
		return Result{Note: "linreg: empty batch"}
	}
	for _, p := range pts {
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				w.xtx.Set(i, j, w.xtx.At(i, j)+p.x[i]*p.x[j])
			}
			w.xty[i] += p.x[i] * p.y
		}
	}
	w.n += int64(len(pts))
	beta, err := linalg.SolveSPD(w.xtx, w.xty)
	if err != nil {
		return Result{Records: len(pts), Note: "linreg: singular system"}
	}
	w.beta = beta
	mse := 0.0
	for _, p := range pts {
		pred := 0.0
		for i := 0; i < d; i++ {
			pred += beta[i] * p.x[i]
		}
		diff := pred - p.y
		mse += diff * diff
	}
	mse /= float64(len(pts))
	return Result{
		Records: len(pts),
		Output:  map[string]float64{"mse": mse, "n_total": float64(w.n)},
		Note:    fmt.Sprintf("linreg: %d points, mse %.4f", len(pts), mse),
	}
}
