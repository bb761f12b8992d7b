package linalg

import (
	"math"
	"testing"
	"testing/quick"

	"nostop/internal/rng"
)

func near(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestVectorDotNorm(t *testing.T) {
	v := Vector{3, 4}
	if v.Dot(v) != 25 {
		t.Fatalf("Dot=%v", v.Dot(v))
	}
	if v.Norm() != 5 {
		t.Fatalf("Norm=%v", v.Norm())
	}
}

func TestVectorOps(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{10, 20, 30}
	v.AddScaled(0.1, w)
	for i, want := range []float64{2, 4, 6} {
		if !near(v[i], want, 1e-12) {
			t.Fatalf("AddScaled=%v", v)
		}
	}
	v.Scale(0.5)
	if !near(v[0], 1, 1e-12) {
		t.Fatalf("Scale=%v", v)
	}
	d := w.Sub(Vector{1, 2, 3})
	if d[2] != 27 {
		t.Fatalf("Sub=%v", d)
	}
	c := v.Clone()
	c[0] = 99
	if v[0] == 99 {
		t.Fatal("Clone aliases")
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

func TestMatrixMulVec(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	got := m.MulVec(Vector{1, 1, 1})
	if got[0] != 6 || got[1] != 15 {
		t.Fatalf("MulVec=%v", got)
	}
}

func TestMatrixMulAndTranspose(t *testing.T) {
	a := NewMatrix(2, 3)
	copy(a.Data, []float64{1, 2, 3, 4, 5, 6})
	b := a.Transpose()
	if b.Rows != 3 || b.Cols != 2 || b.At(2, 1) != 6 || b.At(0, 1) != 4 {
		t.Fatalf("Transpose wrong: %+v", b)
	}
	p := a.Mul(b) // 2x2: [[14,32],[32,77]]
	if p.At(0, 0) != 14 || p.At(0, 1) != 32 || p.At(1, 0) != 32 || p.At(1, 1) != 77 {
		t.Fatalf("Mul=%+v", p)
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(3)
	v := Vector{7, 8, 9}
	got := id.MulVec(v)
	for i := range v {
		if got[i] != v[i] {
			t.Fatalf("I·v=%v", got)
		}
	}
}

func TestMatrixCloneIndependent(t *testing.T) {
	a := Identity(2)
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
	// log det(A) = log 8
	if !near(ch.LogDet(), math.Log(8), 1e-12) {
		t.Fatalf("LogDet=%v want %v", ch.LogDet(), math.Log(8))
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
	b := a.MulVec(want)
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
		a := b.Transpose().Mul(b)
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+1)
		}
		x := make(Vector, n)
		for i := range x {
			x[i] = r.NormFloat64() * 3
		}
		rhs := a.MulVec(x)
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
		rec := ch.L.Mul(ch.L.Transpose())
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

func TestLeastSquaresExact(t *testing.T) {
	// y = 2 + 3x fit with design matrix [1, x].
	xs := []float64{0, 1, 2, 3, 4}
	x := NewMatrix(len(xs), 2)
	y := make(Vector, len(xs))
	for i, v := range xs {
		x.Set(i, 0, 1)
		x.Set(i, 1, v)
		y[i] = 2 + 3*v
	}
	beta, err := LeastSquares(x, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !near(beta[0], 2, 1e-9) || !near(beta[1], 3, 1e-9) {
		t.Fatalf("beta=%v want [2 3]", beta)
	}
}

func TestLeastSquaresNoisy(t *testing.T) {
	r := rng.New(4).Rand()
	n := 500
	x := NewMatrix(n, 3)
	y := make(Vector, n)
	true3 := Vector{1.5, -2, 0.5}
	for i := 0; i < n; i++ {
		x.Set(i, 0, 1)
		x.Set(i, 1, r.NormFloat64())
		x.Set(i, 2, r.NormFloat64())
		y[i] = true3.Dot(Vector{x.At(i, 0), x.At(i, 1), x.At(i, 2)}) + 0.05*r.NormFloat64()
	}
	beta, err := LeastSquares(x, y, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range true3 {
		if !near(beta[i], true3[i], 0.02) {
			t.Fatalf("beta=%v want %v", beta, true3)
		}
	}
}

func TestLeastSquaresProperty(t *testing.T) {
	// Property: residual Xᵀ(y − Xβ) ≈ 0 at the least-squares solution
	// (ridge = 0, well-conditioned design).
	f := func(seed int64) bool {
		r := rng.New(uint64(seed)).Rand()
		n, p := 20, 3
		x := NewMatrix(n, p)
		y := make(Vector, n)
		for i := 0; i < n; i++ {
			for j := 0; j < p; j++ {
				x.Set(i, j, r.NormFloat64())
			}
			y[i] = r.NormFloat64()
		}
		beta, err := LeastSquares(x, y, 0)
		if err != nil {
			return false
		}
		resid := y.Sub(x.MulVec(beta))
		grad := x.Transpose().MulVec(resid)
		return grad.Norm() < 1e-8*float64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rng.New(7).Rand()}); err != nil {
		t.Error(err)
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
	a := base.Transpose().Mul(base)
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
