package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"nostop/internal/rng"
)

func TestTable2Shape(t *testing.T) {
	c := Table2()
	nodes := c.Nodes()
	if len(nodes) != 5 {
		t.Fatalf("nodes=%d, want 5", len(nodes))
	}
	if nodes[0].Role != Master {
		t.Error("node 1 should be master")
	}
	workers := 0
	for _, n := range nodes {
		if n.Role == Worker {
			workers++
		}
	}
	if workers != 4 {
		t.Fatalf("workers=%d, want 4", workers)
	}
	if c.TotalWorkerCores() < 20 {
		t.Fatalf("capacity %d cannot host the paper's 20-executor max", c.TotalWorkerCores())
	}
	// Heterogeneity: the Xeon Bronze node must be slower.
	var xeon *NodeSpec
	for _, n := range nodes {
		if n.ID == 3 {
			xeon = n
		}
	}
	if xeon == nil || xeon.SpeedFactor >= 1.0 {
		t.Error("Xeon Bronze node should have speed factor < 1")
	}
	// Disk classes per Table 2.
	wantDisk := map[int]DiskClass{1: SSD, 2: SSD, 3: HDD, 4: HDD, 5: HDD}
	for _, n := range nodes {
		if n.Disk != wantDisk[n.ID] {
			t.Errorf("node %d disk %v, want %v", n.ID, n.Disk, wantDisk[n.ID])
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("empty cluster accepted")
	}
	if _, err := New([]NodeSpec{
		{ID: 1, SpeedFactor: 1, DiskFactor: 1},
		{ID: 1, SpeedFactor: 1, DiskFactor: 1},
	}); err == nil {
		t.Error("duplicate node IDs accepted")
	}
	if _, err := New([]NodeSpec{{ID: 1, SpeedFactor: 0, DiskFactor: 1}}); err == nil {
		t.Error("zero speed factor accepted")
	}
	if _, err := New([]NodeSpec{{ID: 1, SpeedFactor: 1, DiskFactor: 0}}); err == nil {
		t.Error("zero disk factor accepted")
	}
	if _, err := New([]NodeSpec{{ID: 1, SpeedFactor: 1, DiskFactor: 1, Cores: -1}}); err == nil {
		t.Error("negative cores accepted")
	}
}

func TestAllocateSpreads(t *testing.T) {
	c := Homogeneous(4, 6)
	execs, err := c.Allocate(4)
	if err != nil {
		t.Fatal(err)
	}
	perNode := map[int]int{}
	for _, e := range execs {
		perNode[e.Node.ID]++
	}
	if len(perNode) != 4 {
		t.Fatalf("4 executors on %d nodes, want spread over 4", len(perNode))
	}
	for id, n := range perNode {
		if n != 1 {
			t.Fatalf("node %d has %d executors, want 1", id, n)
		}
	}
}

func TestAllocateCapacityAccounting(t *testing.T) {
	c := Homogeneous(2, 3) // capacity 6
	a, err := c.Allocate(4)
	if err != nil {
		t.Fatal(err)
	}
	if c.UsedCores() != 4 {
		t.Fatalf("UsedCores=%d, want 4", c.UsedCores())
	}
	if _, err := c.Allocate(3); err != ErrInsufficientCapacity {
		t.Fatalf("over-allocation err=%v, want ErrInsufficientCapacity", err)
	}
	// Failed allocation must not leak cores.
	if c.UsedCores() != 4 {
		t.Fatalf("UsedCores=%d after failed alloc, want 4", c.UsedCores())
	}
	b, err := c.Allocate(2)
	if err != nil {
		t.Fatal(err)
	}
	c.Release(a)
	if c.UsedCores() != 2 {
		t.Fatalf("UsedCores=%d after release, want 2", c.UsedCores())
	}
	c.Release(b)
	if c.UsedCores() != 0 {
		t.Fatalf("UsedCores=%d after full release, want 0", c.UsedCores())
	}
}

func TestAllocateRejectsNonPositive(t *testing.T) {
	c := Table2()
	if _, err := c.Allocate(0); err == nil {
		t.Error("Allocate(0) accepted")
	}
	if _, err := c.Allocate(-3); err == nil {
		t.Error("Allocate(-3) accepted")
	}
}

func TestExecutorIDsUnique(t *testing.T) {
	c := Table2()
	a, _ := c.Allocate(5)
	c.Release(a)
	b, _ := c.Allocate(5)
	seen := map[int]bool{}
	for _, e := range append(a, b...) {
		if seen[e.ID] {
			t.Fatalf("duplicate executor ID %d", e.ID)
		}
		seen[e.ID] = true
	}
}

func TestParallelismHomogeneous(t *testing.T) {
	c := Homogeneous(4, 6)
	execs, _ := c.Allocate(8)
	if p := Parallelism(execs, 0); math.Abs(p-8) > 1e-12 {
		t.Fatalf("parallelism %v, want 8", p)
	}
	if p := Parallelism(execs, 1); math.Abs(p-8) > 1e-12 {
		t.Fatalf("SSD homogeneous io parallelism %v, want 8", p)
	}
}

func TestParallelismHeterogeneous(t *testing.T) {
	c := Table2()
	execs, err := c.Allocate(20)
	if err != nil {
		t.Fatal(err)
	}
	cpu := Parallelism(execs, 0)
	// 5 executors per worker: 5*(1.0 + 0.66 + 1.05 + 1.05) = 18.8
	if math.Abs(cpu-18.8) > 1e-9 {
		t.Fatalf("cpu parallelism %v, want 18.8", cpu)
	}
	io := Parallelism(execs, 1)
	if io >= cpu {
		t.Fatalf("io-bound parallelism %v should be below cpu %v on HDD-heavy cluster", io, cpu)
	}
}

func TestParallelismClampIOWeight(t *testing.T) {
	c := Table2()
	execs, _ := c.Allocate(4)
	lo := Parallelism(execs, -5)
	hi := Parallelism(execs, 7)
	if lo != Parallelism(execs, 0) || hi != Parallelism(execs, 1) {
		t.Error("ioWeight not clamped to [0,1]")
	}
}

func TestParallelismMonotoneInExecutors(t *testing.T) {
	// Property: adding executors never reduces parallelism.
	f := func(nRaw uint8) bool {
		n := int(nRaw%20) + 1
		c := Table2()
		execs, err := c.Allocate(n)
		if err != nil {
			return false
		}
		p1 := Parallelism(execs, 0.3)
		if n < c.TotalWorkerCores() {
			more, err := c.Allocate(1)
			if err != nil {
				return false
			}
			p2 := Parallelism(append(execs, more...), 0.3)
			return p2 > p1
		}
		return p1 > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng.New(19).Rand()}); err != nil {
		t.Error(err)
	}
}

func TestReleaseIdempotentUnderflowGuard(t *testing.T) {
	c := Homogeneous(1, 2)
	a, _ := c.Allocate(2)
	c.Release(a)
	c.Release(a) // double release must not underflow
	if c.UsedCores() != 0 {
		t.Fatalf("UsedCores=%d", c.UsedCores())
	}
	if _, err := c.Allocate(2); err != nil {
		t.Fatalf("reallocation after double release failed: %v", err)
	}
}

func TestStringers(t *testing.T) {
	if SSD.String() != "SSD" || HDD.String() != "HDD" {
		t.Error("DiskClass.String wrong")
	}
	if Master.String() != "Master" || Worker.String() != "Worker" {
		t.Error("Role.String wrong")
	}
}

func TestHeterogeneousPlacementPrefersFreeNodes(t *testing.T) {
	c := Table2()
	execs, _ := c.Allocate(8)
	perNode := map[int]int{}
	for _, e := range execs {
		perNode[e.Node.ID]++
	}
	for id, n := range perNode {
		if n != 2 {
			t.Fatalf("node %d has %d executors, want 2 each across 4 workers", id, n)
		}
	}
}
