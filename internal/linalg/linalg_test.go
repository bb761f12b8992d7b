package linalg

import (
	"math"
	"testing"

	"nostop/internal/rng"
)

func near(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestVectorDotNorm(t *testing.T) {
	v := Vector{3, 4}
	if v.Dot(v) != 25 {
		t.Fatalf("Dot=%v", v.Dot(v))
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	Vector{1}.Dot(Vector{1, 2})
}

// TestMatrixMulVec and TestMatrixMulAndTranspose check the reference
// products the Cholesky tests trust against hand-computed cases.
func TestMatrixMulVec(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	got := mulVec(m, Vector{1, 1, 1})
	if got[0] != 6 || got[1] != 15 {
		t.Fatalf("mulVec=%v", got)
	}
}

func TestMatrixMulAndTranspose(t *testing.T) {
	a := NewMatrix(2, 3)
	copy(a.Data, []float64{1, 2, 3, 4, 5, 6})
	b := transpose(a)
	if b.Rows != 3 || b.Cols != 2 || b.At(2, 1) != 6 || b.At(0, 1) != 4 {
		t.Fatalf("transpose wrong: %+v", b)
	}
	p := mul(a, b) // 2x2: [[14,32],[32,77]]
	if p.At(0, 0) != 14 || p.At(0, 1) != 32 || p.At(1, 0) != 32 || p.At(1, 1) != 77 {
		t.Fatalf("mul=%+v", p)
	}
}

func TestMatrixCloneIndependent(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	b := a.Clone()
	b.Set(0, 0, 5)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone aliases storage")
	}
}

func TestCholeskyKnown(t *testing.T) {
	// A = [[4,2],[2,3]] has L = [[2,0],[1,sqrt(2)]].
	a := NewMatrix(2, 2)
	copy(a.Data, []float64{4, 2, 2, 3})
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if !near(ch.L.At(0, 0), 2, 1e-12) || !near(ch.L.At(1, 0), 1, 1e-12) || !near(ch.L.At(1, 1), math.Sqrt2, 1e-12) {
		t.Fatalf("L=%+v", ch.L)
	}
	if ch.L.At(0, 1) != 0 {
		t.Fatal("L not lower-triangular")
	}
}

func TestCholeskySolve(t *testing.T) {
	a := NewMatrix(3, 3)
	copy(a.Data, []float64{
		6, 2, 1,
		2, 5, 2,
		1, 2, 4,
	})
	want := Vector{1, -2, 3}
	b := mulVec(a, want)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	got := ch.Solve(b)
	for i := range want {
		if !near(got[i], want[i], 1e-9) {
			t.Fatalf("Solve=%v want %v", got, want)
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewMatrix(2, 2)
	copy(a.Data, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	if _, err := NewCholesky(a); err != ErrNotPositiveDefinite {
		t.Fatalf("err=%v, want ErrNotPositiveDefinite", err)
	}
}

func TestCholeskyRandomSPDProperty(t *testing.T) {
	// Property: for random SPD A = BᵀB + I and random x, Solve(A·x) ≈ x.
	r := rng.New(99).Rand()
	for trial := 0; trial < 30; trial++ {
		n := 1 + r.Intn(8)
		b := NewMatrix(n, n)
		for i := range b.Data {
			b.Data[i] = r.NormFloat64()
		}
		a := mul(transpose(b), b)
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+1)
		}
		x := make(Vector, n)
		for i := range x {
			x[i] = r.NormFloat64() * 3
		}
		rhs := mulVec(a, x)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got := ch.Solve(rhs)
		for i := range x {
			if !near(got[i], x[i], 1e-6*(1+math.Abs(x[i]))) {
				t.Fatalf("trial %d: got %v want %v", trial, got, x)
			}
		}
		// Reconstruction: L·Lᵀ ≈ A.
		rec := mul(ch.L, transpose(ch.L))
		for i := range a.Data {
			if !near(rec.Data[i], a.Data[i], 1e-8*(1+math.Abs(a.Data[i]))) {
				t.Fatalf("trial %d: L·Lᵀ≠A", trial)
			}
		}
	}
}

func TestSolveSPDJitterRecovery(t *testing.T) {
	// Singular matrix: SolveSPD should succeed after adding jitter.
	a := NewMatrix(2, 2)
	copy(a.Data, []float64{1, 1, 1, 1})
	x, err := SolveSPD(a, Vector{2, 2})
	if err != nil {
		t.Fatalf("SolveSPD failed on singular-with-jitter case: %v", err)
	}
	// With jitter the solution approximates the minimum-norm solution (1,1).
	if math.Abs(x[0]+x[1]-2) > 1e-3 {
		t.Fatalf("x=%v, x0+x1 should be ~2", x)
	}
}

func TestNewMatrixBadShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewMatrix(0,1) did not panic")
		}
	}()
	NewMatrix(0, 1)
}

// BenchmarkCholesky32 measures factoring a 32×32 positive-definite matrix.
func BenchmarkCholesky32(b *testing.B) {
	r := rng.New(4)
	n := 32
	base := NewMatrix(n, n)
	for i := range base.Data {
		base.Data[i] = r.Norm(0, 1)
	}
	a := mul(transpose(base), base)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+float64(n))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewCholesky(a); err != nil {
			b.Fatal(err)
		}
	}
}

// mulVec, mul and transpose are the reference products the Cholesky tests
// check factors and solves against.

// mulVec returns m·v.
func mulVec(m *Matrix, v Vector) Vector {
	out := make(Vector, m.Rows)
	for r := range out {
		out[r] = Vector(m.Data[r*m.Cols : (r+1)*m.Cols]).Dot(v)
	}
	return out
}

// mul returns m·n.
func mul(m, n *Matrix) *Matrix {
	out := NewMatrix(m.Rows, n.Cols)
	for r := 0; r < m.Rows; r++ {
		for k := 0; k < m.Cols; k++ {
			for c := 0; c < n.Cols; c++ {
				out.Data[r*out.Cols+c] += m.At(r, k) * n.At(k, c)
			}
		}
	}
	return out
}

// transpose returns mᵀ.
func transpose(m *Matrix) *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			out.Set(c, r, m.At(r, c))
		}
	}
	return out
}
