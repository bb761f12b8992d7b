package cluster

import (
	"fmt"
	"sort"
	"testing"

	"nostop/internal/rng"
)

// Placement over per-node slices must pick exactly what the map-and-scan
// allocator it replaced picked. scanCluster is that allocator, kept as the
// reference: per-node maps, a live-worker list rebuilt after each failure
// transition, and a strict-> scan of the live workers in ID order for every
// executor.
type scanCluster struct {
	sorted []*NodeSpec
	byID   map[int]*NodeSpec
	used   map[int]int
	failed map[int]bool
	nextID int

	liveWorkers []*NodeSpec
	freeCores   int
	liveCores   int
	failedCount int
}

func newScanCluster(nodes []NodeSpec) *scanCluster {
	c := &scanCluster{used: map[int]int{}, failed: map[int]bool{}, byID: map[int]*NodeSpec{}}
	for i := range nodes {
		n := nodes[i]
		c.sorted = append(c.sorted, &n)
		c.byID[n.ID] = &n
		if n.Role == Worker {
			c.freeCores += n.Cores
			c.liveCores += n.Cores
		}
	}
	sort.Slice(c.sorted, func(i, j int) bool { return c.sorted[i].ID < c.sorted[j].ID })
	return c
}

func (c *scanCluster) live() []*NodeSpec {
	if c.liveWorkers == nil {
		out := make([]*NodeSpec, 0, len(c.sorted))
		for _, n := range c.sorted {
			if n.Role == Worker && !c.failed[n.ID] {
				out = append(out, n)
			}
		}
		c.liveWorkers = out
	}
	return c.liveWorkers
}

func (c *scanCluster) SetFailed(nodeID int, failed bool) error {
	n := c.byID[nodeID]
	if n == nil {
		return fmt.Errorf("cluster: unknown node %d", nodeID)
	}
	if c.failed[nodeID] == failed {
		return nil
	}
	c.failed[nodeID] = failed
	if failed {
		c.failedCount++
	} else {
		c.failedCount--
	}
	if n.Role == Worker {
		delta := 1
		if failed {
			delta = -1
		}
		c.liveCores += delta * n.Cores
		c.freeCores += delta * (n.Cores - c.used[nodeID])
		c.liveWorkers = nil
	}
	return nil
}

func (c *scanCluster) UsedCores() int {
	total := 0
	for _, v := range c.used {
		total += v
	}
	return total
}

func (c *scanCluster) Allocate(n int) ([]Executor, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: allocation size %d must be positive", n)
	}
	if c.freeCores < n {
		return nil, ErrInsufficientCapacity
	}
	workers := c.live()
	execs := make([]Executor, 0, n)
	for len(execs) < n {
		var best *NodeSpec
		bestFree := -1
		for _, w := range workers {
			free := w.Cores - c.used[w.ID]
			if free > bestFree {
				best, bestFree = w, free
			}
		}
		if bestFree <= 0 {
			return nil, ErrInsufficientCapacity
		}
		c.used[best.ID]++
		c.freeCores--
		execs = append(execs, Executor{ID: c.nextID, Node: best})
		c.nextID++
	}
	return execs, nil
}

func (c *scanCluster) Release(execs []Executor) {
	for _, e := range execs {
		if c.used[e.Node.ID] > 0 {
			c.used[e.Node.ID]--
			if e.Node.Role == Worker && !c.failed[e.Node.ID] {
				c.freeCores++
			}
		}
	}
}

// randomNodes draws a node set in shuffled order: distinct, non-contiguous
// IDs (negative ones included), a master or two, zero-core workers, and
// mostly small clusters with a few of up to 1000 nodes.
func randomNodes(r *rng.Stream) []NodeSpec {
	var size int
	switch r.Intn(4) {
	case 0:
		size = 1 + r.Intn(4)
	case 1, 2:
		size = 1 + r.Intn(40)
	default:
		size = 1 + r.Intn(1000)
	}
	ids := r.Rand().Perm(3 * size)
	nodes := make([]NodeSpec, size)
	for i := range nodes {
		role := Worker
		if i < 2 && r.Intn(3) == 0 {
			role = Master
		}
		cores := r.Intn(7)
		if r.Intn(5) == 0 {
			cores = 0
		}
		nodes[i] = NodeSpec{
			ID: ids[i] - size, Cores: cores, Role: role,
			SpeedFactor: 0.5 + r.Float64(), DiskFactor: 0.5 + r.Float64(),
		}
	}
	r.Rand().Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
	return nodes
}

// TestPlacementLockstep drives the cluster and the map-and-scan reference
// through the same random Allocate, Release (partial, whole and repeated)
// and SetFailed (fail, restore, no-op, unknown ID) operations and compares
// every returned executor and every accounting query after each step.
func TestPlacementLockstep(t *testing.T) {
	root := rng.New(23).Split("placement-lockstep")
	steps := 0
	for round := 0; round < 80; round++ {
		r := root.Split(fmt.Sprintf("round-%d", round))
		nodes := randomNodes(r)
		c, err := New(nodes)
		if err != nil {
			t.Fatal(err)
		}
		ref := newScanCluster(nodes)
		ids := make([]int, len(nodes))
		for i, n := range nodes {
			ids[i] = n.ID
		}
		var got, want [][]Executor // outstanding allocations, one list per side
		for op := 0; op < 200; op++ {
			steps++
			where := fmt.Sprintf("round %d (%d nodes) op %d", round, len(nodes), op)
			switch k := r.Intn(10); {
			case k < 4: // allocate, sometimes non-positive or beyond capacity
				n := r.Intn(ref.freeCores+3) - 1
				if r.Intn(4) == 0 {
					n = 1 + r.Intn(8)
				}
				g, gerr := c.Allocate(n)
				w, werr := ref.Allocate(n)
				if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
					t.Fatalf("%s: Allocate(%d) err %v, reference %v", where, n, gerr, werr)
				}
				if len(g) != len(w) {
					t.Fatalf("%s: Allocate(%d) placed %d executors, reference %d", where, n, len(g), len(w))
				}
				for i := range g {
					if g[i].ID != w[i].ID || g[i].Node.ID != w[i].Node.ID {
						t.Fatalf("%s: Allocate(%d) executor %d is %d on node %d, reference %d on node %d",
							where, n, i, g[i].ID, g[i].Node.ID, w[i].ID, w[i].Node.ID)
					}
				}
				if gerr == nil {
					got, want = append(got, g), append(want, w)
				}
			case k < 7: // release a whole allocation, a part of one, or one again
				if len(got) == 0 {
					continue
				}
				i := r.Intn(len(got))
				lo := r.Intn(len(got[i]))
				hi := lo + 1 + r.Intn(len(got[i])-lo)
				c.Release(got[i][lo:hi])
				ref.Release(want[i][lo:hi])
				if r.Intn(3) > 0 {
					got = append(got[:i], got[i+1:]...)
					want = append(want[:i], want[i+1:]...)
				}
			default: // fail or restore a node, or touch an unknown one
				id := ids[r.Intn(len(ids))]
				if r.Intn(10) == 0 {
					id = 4*len(nodes) + r.Intn(5)
				}
				failed := r.Intn(2) == 0
				gerr, werr := c.SetFailed(id, failed), ref.SetFailed(id, failed)
				if (gerr == nil) != (werr == nil) {
					t.Fatalf("%s: SetFailed(%d, %v) err %v, reference %v", where, id, failed, gerr, werr)
				}
			}
			compareClusters(t, where, c, ref, ids)
		}
	}
	if steps < 10_000 {
		t.Fatalf("ran %d lockstep steps, want >= 10000", steps)
	}
}

// compareClusters checks every accounting query of c against ref.
func compareClusters(t *testing.T, where string, c *Cluster, ref *scanCluster, ids []int) {
	t.Helper()
	if g, w := c.FreeCores(), ref.freeCores; g != w {
		t.Fatalf("%s: FreeCores %d, reference %d", where, g, w)
	}
	if g, w := c.UsedCores(), ref.UsedCores(); g != w {
		t.Fatalf("%s: UsedCores %d, reference %d", where, g, w)
	}
	if g, w := c.TotalWorkerCores(), ref.liveCores; g != w {
		t.Fatalf("%s: TotalWorkerCores %d, reference %d", where, g, w)
	}
	if g, w := c.FailedCount(), ref.failedCount; g != w {
		t.Fatalf("%s: FailedCount %d, reference %d", where, g, w)
	}
	for _, id := range ids {
		if g, w := c.failed[c.index[id]], ref.failed[id]; g != w {
			t.Fatalf("%s: Failed(%d) %v, reference %v", where, id, g, w)
		}
	}
}

// TestAllocsAllocateRelease pins the placement cost: Allocate makes one
// allocation, its result, and Release none.
func TestAllocsAllocateRelease(t *testing.T) {
	c := Homogeneous(1000, 4)
	allocs := testing.AllocsPerRun(200, func() {
		c.Allocate(8)
	})
	if allocs != 1 {
		t.Fatalf("Allocate(8) makes %.1f allocations, want 1 (its result)", allocs)
	}
	// Release each of 201 fresh allocations once: the warm-up run plus 200.
	before := c.UsedCores()
	pool := make([][]Executor, 201)
	for i := range pool {
		if pool[i], _ = c.Allocate(8); len(pool[i]) != 8 {
			t.Fatal("cluster ran out of cores")
		}
	}
	next := 0
	allocs = testing.AllocsPerRun(200, func() {
		c.Release(pool[next])
		next++
	})
	if allocs != 0 {
		t.Fatalf("Release makes %.1f allocations, want 0", allocs)
	}
	if c.UsedCores() != before {
		t.Fatalf("UsedCores %d after releasing the pool, want %d", c.UsedCores(), before)
	}
}

// BenchmarkAllocate re-places the executors of a reconfiguration on the
// tenant mix's 1000-node, 4-core cluster: release 8 executors, allocate 8.
func BenchmarkAllocate(b *testing.B) {
	c := Homogeneous(1000, 4)
	if _, err := c.Allocate(2000); err != nil {
		b.Fatal(err)
	}
	execs, err := c.Allocate(8)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Release(execs)
		if execs, err = c.Allocate(8); err != nil {
			b.Fatal(err)
		}
	}
}
