// Package linalg provides the dense linear algebra the reproduction needs:
// vectors, row-major matrices, Cholesky factorization and triangular solves
// (for the Gaussian-process Bayesian-optimization baseline and the
// linear-regression workload's normal equations).
//
// The implementation favours clarity and numerical robustness over raw
// speed; the matrices involved are small (tens of rows for GP, a handful of
// features for the workloads).
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned by Cholesky when the matrix is not
// (numerically) symmetric positive definite.
var ErrNotPositiveDefinite = errors.New("linalg: matrix not positive definite")

// ErrSingular is returned by solvers when the system is singular.
var ErrSingular = errors.New("linalg: singular matrix")

// Vector is a dense float64 vector.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Dot returns the inner product of v and w; lengths must match.
func (v Vector) Dot(w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d vs %d", len(v), len(w)))
	}
	s := 0.0
	for i := range v {
		s += v[i] * w[i]
	}
	return s
}

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, Data[r*Cols+c]
}

// NewMatrix returns a zero r×c matrix.
func NewMatrix(r, c int) *Matrix {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("linalg: invalid matrix shape %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// At returns element (r, c).
func (m *Matrix) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Set assigns element (r, c).
func (m *Matrix) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	return &Matrix{Rows: m.Rows, Cols: m.Cols, Data: append([]float64(nil), m.Data...)}
}

// Cholesky holds the lower-triangular factor L with A = L·Lᵀ.
type Cholesky struct {
	L *Matrix
}

// NewCholesky factors the symmetric positive-definite matrix a. Only the
// lower triangle of a is read. Returns ErrNotPositiveDefinite when a pivot
// is non-positive.
func NewCholesky(a *Matrix) (*Cholesky, error) {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("linalg: Cholesky of non-square %dx%d", a.Rows, a.Cols))
	}
	n := a.Rows
	l := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			d -= l.At(j, k) * l.At(j, k)
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrNotPositiveDefinite
		}
		ljj := math.Sqrt(d)
		l.Set(j, j, ljj)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s/ljj)
		}
	}
	return &Cholesky{L: l}, nil
}

// Solve solves A·x = b given the factorization, via forward then backward
// substitution.
func (ch *Cholesky) Solve(b Vector) Vector {
	y := ch.SolveLower(b)
	return ch.SolveUpper(y)
}

// SolveLower solves L·y = b (forward substitution).
func (ch *Cholesky) SolveLower(b Vector) Vector {
	n := ch.L.Rows
	if len(b) != n {
		panic(fmt.Sprintf("linalg: SolveLower length mismatch %d vs %d", len(b), n))
	}
	y := make(Vector, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= ch.L.At(i, k) * y[k]
		}
		y[i] = s / ch.L.At(i, i)
	}
	return y
}

// SolveUpper solves Lᵀ·x = y (backward substitution).
func (ch *Cholesky) SolveUpper(y Vector) Vector {
	n := ch.L.Rows
	if len(y) != n {
		panic(fmt.Sprintf("linalg: SolveUpper length mismatch %d vs %d", len(y), n))
	}
	x := make(Vector, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= ch.L.At(k, i) * x[k]
		}
		x[i] = s / ch.L.At(i, i)
	}
	return x
}

// SolveSPD solves A·x = b for symmetric positive-definite A, adding jitter
// to the diagonal and retrying if the factorization fails. This is the
// standard Gaussian-process conditioning trick.
func SolveSPD(a *Matrix, b Vector) (Vector, error) {
	jitter := 0.0
	for attempt := 0; attempt < 8; attempt++ {
		m := a
		if jitter > 0 {
			m = a.Clone()
			for i := 0; i < m.Rows; i++ {
				m.Set(i, i, m.At(i, i)+jitter)
			}
		}
		ch, err := NewCholesky(m)
		if err == nil {
			return ch.Solve(b), nil
		}
		if jitter == 0 {
			jitter = 1e-10
		} else {
			jitter *= 100
		}
	}
	return nil, ErrNotPositiveDefinite
}
