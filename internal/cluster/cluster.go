// Package cluster models the heterogeneous compute cluster of the paper's
// testbed (Table 2): one master and four workers with different CPU
// generations and disk classes. Executors are allocated 1 core + 1 GB each
// (§6.2.1) and placed across workers; each executor inherits its host
// node's speed and disk factors, which feed the workload cost models.
package cluster

import (
	"errors"
	"fmt"
	"sort"
)

// DiskClass distinguishes the storage technology of a node.
type DiskClass int

// Disk classes from Table 2 ("HHD" in the paper is a typo for HDD).
const (
	SSD DiskClass = iota
	HDD
)

// String implements fmt.Stringer.
func (d DiskClass) String() string {
	if d == SSD {
		return "SSD"
	}
	return "HDD"
}

// Role distinguishes the master from workers.
type Role int

// Node roles.
const (
	Master Role = iota
	Worker
)

// String implements fmt.Stringer.
func (r Role) String() string {
	if r == Master {
		return "Master"
	}
	return "Worker"
}

// NodeSpec describes one cluster node.
type NodeSpec struct {
	ID       int
	CPUModel string
	GHz      float64
	Cores    int // cores available for executors
	MemoryMB int
	Disk     DiskClass
	Role     Role
	// SpeedFactor scales per-record compute throughput relative to the
	// reference node (1.0 = I5-9400 2.9GHz).
	SpeedFactor float64
	// DiskFactor scales I/O-bound throughput (1.0 = SSD).
	DiskFactor float64
}

// Executor is one allocated executor process: 1 core, 1 GB, pinned to a node
// for the lifetime of the allocation (the paper notes executor specs cannot
// change at runtime; only their count can).
type Executor struct {
	ID   int
	Node *NodeSpec
}

// Cluster is a set of nodes with executor-slot accounting and failure
// state: a failed node's cores are unavailable until it is restored.
//
// The cluster is sized for O(1000) nodes. Per-node state lives in slices in
// ID order, reached from a node ID through one map. The capacity queries
// the engine issues on every batch (FreeCores, FailedCount,
// TotalWorkerCores) are O(1) incremental counters, and placing an executor
// is one pass over the slices, with no map lookup.
type Cluster struct {
	sorted []*NodeSpec // nodes in ID order, built once (node set is immutable)
	index  map[int]int // node ID -> position in sorted
	used   []int       // cores in use, by position
	failed []bool      // currently failed, by position
	nextID int

	freeCores   int // unallocated cores across live workers
	liveCores   int // total cores across live workers
	failedCount int // nodes currently marked failed
}

// ErrInsufficientCapacity is returned when an allocation cannot be placed.
var ErrInsufficientCapacity = errors.New("cluster: insufficient executor capacity")

// New returns a cluster over the given nodes. Node IDs must be unique.
func New(nodes []NodeSpec) (*Cluster, error) {
	if len(nodes) == 0 {
		return nil, errors.New("cluster: no nodes")
	}
	c := &Cluster{index: make(map[int]int, len(nodes))}
	for i := range nodes {
		n := nodes[i]
		if _, dup := c.index[n.ID]; dup {
			return nil, fmt.Errorf("cluster: duplicate node ID %d", n.ID)
		}
		if n.SpeedFactor <= 0 {
			return nil, fmt.Errorf("cluster: node %d has non-positive speed factor", n.ID)
		}
		if n.DiskFactor <= 0 {
			return nil, fmt.Errorf("cluster: node %d has non-positive disk factor", n.ID)
		}
		if n.Cores < 0 {
			return nil, fmt.Errorf("cluster: node %d has negative cores", n.ID)
		}
		c.index[n.ID] = i
		c.sorted = append(c.sorted, &n)
	}
	sort.Slice(c.sorted, func(i, j int) bool { return c.sorted[i].ID < c.sorted[j].ID })
	c.used = make([]int, len(c.sorted))
	c.failed = make([]bool, len(c.sorted))
	for i, n := range c.sorted {
		c.index[n.ID] = i
		if n.Role == Worker {
			c.freeCores += n.Cores
			c.liveCores += n.Cores
		}
	}
	return c, nil
}

// Table2 reproduces the paper's testbed (Table 2): five nodes, master
// I5-9400, workers I5-9400 / Xeon Bronze 3204 / 2× I5-10400, SSDs on the
// first two nodes and HDDs elsewhere. Worker core counts give the 20-executor
// headroom §6.2.1 assumes. Speed factors follow base clock ratios; disk
// factors penalise HDD nodes on I/O-heavy work.
func Table2() *Cluster {
	c, err := New([]NodeSpec{
		{ID: 1, CPUModel: "I5-9400 2.9GHz", GHz: 2.9, Cores: 0, MemoryMB: 16384, Disk: SSD, Role: Master, SpeedFactor: 1.0, DiskFactor: 1.0},
		{ID: 2, CPUModel: "I5-9400 2.9GHz", GHz: 2.9, Cores: 6, MemoryMB: 16384, Disk: SSD, Role: Worker, SpeedFactor: 1.0, DiskFactor: 1.0},
		{ID: 3, CPUModel: "Xeon Bronze 3204 1.9GHz", GHz: 1.9, Cores: 6, MemoryMB: 16384, Disk: HDD, Role: Worker, SpeedFactor: 0.66, DiskFactor: 0.85},
		{ID: 4, CPUModel: "I5-10400 2.9GHz", GHz: 2.9, Cores: 6, MemoryMB: 16384, Disk: HDD, Role: Worker, SpeedFactor: 1.05, DiskFactor: 0.85},
		{ID: 5, CPUModel: "I5-10400 2.9GHz", GHz: 2.9, Cores: 6, MemoryMB: 16384, Disk: HDD, Role: Worker, SpeedFactor: 1.05, DiskFactor: 0.85},
	})
	if err != nil {
		panic(err) // static table; cannot fail
	}
	return c
}

// Homogeneous returns a cluster of n identical workers plus a master, for
// ablations isolating heterogeneity effects.
func Homogeneous(workers, coresEach int) *Cluster {
	specs := []NodeSpec{{ID: 1, CPUModel: "ref", GHz: 2.9, Role: Master, SpeedFactor: 1, DiskFactor: 1}}
	for i := 0; i < workers; i++ {
		specs = append(specs, NodeSpec{
			ID: i + 2, CPUModel: "ref", GHz: 2.9, Cores: coresEach, MemoryMB: coresEach * 1024,
			Disk: SSD, Role: Worker, SpeedFactor: 1, DiskFactor: 1,
		})
	}
	c, err := New(specs)
	if err != nil {
		panic(err)
	}
	return c
}

// Nodes returns the node specs in ID order. The returned slice is a copy;
// the specs themselves are shared.
func (c *Cluster) Nodes() []*NodeSpec {
	return append([]*NodeSpec(nil), c.sorted...)
}

// SetFailed marks a node failed or restored. Executors already allocated on
// a failed node keep their accounting until released; callers (the engine)
// are expected to release and reallocate. Unknown node IDs are an error.
func (c *Cluster) SetFailed(nodeID int, failed bool) error {
	i, ok := c.index[nodeID]
	if !ok {
		return fmt.Errorf("cluster: unknown node %d", nodeID)
	}
	if c.failed[i] == failed {
		return nil // no transition
	}
	c.failed[i] = failed
	if failed {
		c.failedCount++
	} else {
		c.failedCount--
	}
	if n := c.sorted[i]; n.Role == Worker {
		delta := 1
		if failed {
			delta = -1
		}
		c.liveCores += delta * n.Cores
		c.freeCores += delta * (n.Cores - c.used[i])
	}
	return nil
}

// FailedCount returns how many nodes are currently marked failed — the O(1)
// any-node-down check the engine's per-batch fault probe relies on.
func (c *Cluster) FailedCount() int { return c.failedCount }

// TotalWorkerCores returns the total executor capacity on live workers.
func (c *Cluster) TotalWorkerCores() int { return c.liveCores }

// FreeCores returns unallocated cores on live workers.
func (c *Cluster) FreeCores() int { return c.freeCores }

// UsedCores returns the number of cores currently allocated.
func (c *Cluster) UsedCores() int {
	total := 0
	for _, v := range c.used {
		total += v
	}
	return total
}

// Allocate places n executors across workers, spreading to the node with
// the most free cores first (ties: lowest node ID) — mirroring Spark
// standalone's spread-out default. Returns ErrInsufficientCapacity if fewer
// than n cores are free, in which case nothing is allocated.
func (c *Cluster) Allocate(n int) ([]Executor, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: allocation size %d must be positive", n)
	}
	if c.freeCores < n {
		return nil, ErrInsufficientCapacity
	}
	execs := make([]Executor, 0, n)
	for len(execs) < n {
		// Pick the live worker with the most free cores; a strict > over
		// positions in ID order breaks ties to the lowest ID.
		best, bestFree := -1, 0
		for i, w := range c.sorted {
			if w.Role == Worker && !c.failed[i] {
				if free := w.Cores - c.used[i]; free > bestFree {
					best, bestFree = i, free
				}
			}
		}
		if best < 0 {
			// Unreachable given the capacity precheck, but fail loudly.
			return nil, ErrInsufficientCapacity
		}
		c.used[best]++
		c.freeCores--
		execs = append(execs, Executor{ID: c.nextID, Node: c.sorted[best]})
		c.nextID++
	}
	return execs, nil
}

// Release returns the executors' cores to the pool. Cores on a currently
// failed node return to its accounting but not to the free pool — they
// become free only when the node is restored.
func (c *Cluster) Release(execs []Executor) {
	for _, e := range execs {
		if i, ok := c.index[e.Node.ID]; ok && c.used[i] > 0 {
			c.used[i]--
			if e.Node.Role == Worker && !c.failed[i] {
				c.freeCores++
			}
		}
	}
}

// Parallelism returns the effective compute parallelism of an executor set:
// the sum of host speed factors, with disk factors blended in by ioWeight
// (0 = pure CPU work, 1 = fully I/O-bound). A homogeneous set of k reference
// executors has parallelism k.
func Parallelism(execs []Executor, ioWeight float64) float64 {
	if ioWeight < 0 {
		ioWeight = 0
	}
	if ioWeight > 1 {
		ioWeight = 1
	}
	p := 0.0
	for _, e := range execs {
		f := e.Node.SpeedFactor * ((1 - ioWeight) + ioWeight*e.Node.DiskFactor)
		p += f
	}
	return p
}
