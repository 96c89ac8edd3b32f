// Package platform models heterogeneous execution platforms: classes of
// processing elements (CPU cores, GPUs, ...) with per-kernel execution
// times, PCI transfer links, and the calibration data the paper's StarPU
// setup measures on the Mirage machine.
//
// Everything downstream (bounds, schedulers, simulator) consumes only this
// timing model {T_rt}, the resource counts {M_r}, and the bus model — the
// same inputs as the paper's linear programs and SimGrid simulations.
package platform

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// Class is a homogeneous group of processing elements ("resource type" r in
// the paper): Count identical workers, each executing a kernel of kind t in
// Times[t] seconds.
type Class struct {
	Name  string
	Count int
	Times map[graph.Kind]float64 // seconds per kernel execution at RefNB
	// TimesByNB holds calibrated per-kernel times at tile sizes other than
	// the reference (schema v2 platform files). The cost model consults an
	// exact-size table before falling back to the model's size scaling; nil
	// for platforms calibrated at a single tile size.
	TimesByNB map[int]map[graph.Kind]float64
	// MemoryBytes caps the device memory of each worker of an accelerator
	// class (0 = unlimited). The host (class 0) is always unlimited. The
	// simulator evicts least-recently-used tiles, with a write-back transfer
	// when the evicted copy is the only valid one — StarPU's memory manager.
	MemoryBytes float64
}

// CanRun reports whether this class has an implementation for kind k.
func (c *Class) CanRun(k graph.Kind) bool {
	t, ok := c.Times[k]
	return ok && !math.IsInf(t, 1)
}

// Bus models the host↔accelerator PCI interconnect as a latency + bandwidth
// fluid link, one full-duplex link per accelerator (SimGrid-style). When
// Enabled is false, transfers are free — the mode the paper uses when
// comparing schedulers against the (communication-oblivious) bounds.
type Bus struct {
	Enabled      bool
	BandwidthBps float64 // bytes per second per link
	LatencySec   float64
}

// TransferTime returns the time to move `bytes` across one link.
func (b Bus) TransferTime(bytes float64) float64 {
	if !b.Enabled {
		return 0
	}
	return b.LatencySec + bytes/b.BandwidthBps
}

// Overhead models per-task runtime costs of an actual (non-simulated)
// execution: a fixed scheduling overhead per task plus a deterministic
// pseudo-random multiplicative jitter on kernel times, reproducing the
// run-to-run variability of the paper's "actual execution" plots.
type Overhead struct {
	PerTaskSec   float64
	JitterFrac   float64 // e.g. 0.03 ⇒ kernel times vary ±3 %
	JitterActive bool
}

// Platform is a full machine model.
type Platform struct {
	Name      string
	Classes   []Class
	Bus       Bus
	TileBytes float64 // bytes per tile moved over the bus, at the reference size
	Overhead  Overhead
	// RefNB is the tile size (elements per side) the Times tables were
	// calibrated at; 0 means the package default, TileNB.
	RefNB int
	// Model selects the cost model generalizing the tables to other tile
	// sizes: ModelTable (the zero value) prices only calibrated sizes,
	// ModelScaled extrapolates by flop ratio and efficiency. See CostModel.
	Model string
}

// DefaultNB returns the reference tile size the timing tables refer to.
func (p *Platform) DefaultNB() int {
	if p.RefNB > 0 {
		return p.RefNB
	}
	return TileNB
}

// Validate checks the model is usable for a set of kernel kinds: positive
// worker counts and every kind runnable somewhere.
func (p *Platform) Validate(kinds []graph.Kind) error {
	total := 0
	for _, c := range p.Classes {
		if c.Count < 0 {
			return fmt.Errorf("platform: class %q has negative count", c.Name)
		}
		total += c.Count
		for k, t := range c.Times {
			if t <= 0 {
				return fmt.Errorf("platform: class %q kernel %v has non-positive time %g", c.Name, k, t)
			}
		}
		for nb, times := range c.TimesByNB {
			if nb <= 0 {
				return fmt.Errorf("platform: class %q has timing table for non-positive nb %d", c.Name, nb)
			}
			for k, t := range times {
				if t <= 0 {
					return fmt.Errorf("platform: class %q kernel %v@%d has non-positive time %g", c.Name, k, nb, t)
				}
			}
		}
	}
	if total == 0 {
		return fmt.Errorf("platform: no workers")
	}
	for _, k := range kinds {
		if k.IsConversion() {
			// SPLIT/MERGE are priced by the cost model's repacking rate, not
			// the calibrated tables; they are always runnable on the host.
			continue
		}
		ok := false
		for i := range p.Classes {
			if p.Classes[i].Count > 0 && p.Classes[i].CanRun(k) {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("platform: kernel %v runnable nowhere", k)
		}
	}
	return nil
}

// Time returns T_rt: execution time of kind on class r, +Inf if unsupported.
func (p *Platform) Time(class int, kind graph.Kind) float64 {
	t, ok := p.Classes[class].Times[kind]
	if !ok {
		return math.Inf(1)
	}
	return t
}

// FastestTime returns min_r T_rt over classes with workers — the optimistic
// per-task weight used for the critical-path bound and the dmdas priorities.
func (p *Platform) FastestTime(kind graph.Kind) float64 {
	best := math.Inf(1)
	for i := range p.Classes {
		if p.Classes[i].Count == 0 {
			continue
		}
		if t := p.Time(i, kind); t < best {
			best = t
		}
	}
	return best
}

// AverageTime returns the worker-count-weighted mean execution time of kind
// over the platform — HEFT's task weight convention.
func (p *Platform) AverageTime(kind graph.Kind) float64 {
	sum, n := 0.0, 0
	for i := range p.Classes {
		c := &p.Classes[i]
		if c.Count == 0 || !c.CanRun(kind) {
			continue
		}
		sum += float64(c.Count) * p.Time(i, kind)
		n += c.Count
	}
	if n == 0 {
		return math.Inf(1)
	}
	return sum / float64(n)
}

// Workers returns the total number of processing elements.
func (p *Platform) Workers() int {
	n := 0
	for i := range p.Classes {
		n += p.Classes[i].Count
	}
	return n
}

// WorkerClass maps a global worker ID (0-based, classes concatenated in
// order) to its class index.
func (p *Platform) WorkerClass(w int) int {
	for i := range p.Classes {
		if w < p.Classes[i].Count {
			return i
		}
		w -= p.Classes[i].Count
	}
	panic(fmt.Sprintf("platform: worker %d out of range", w)) //chollint:hotcall abort path
}

// ClassWorkers returns the global worker IDs of class r.
func (p *Platform) ClassWorkers(r int) []int {
	start := 0
	for i := 0; i < r; i++ {
		start += p.Classes[i].Count
	}
	ids := make([]int, p.Classes[r].Count)
	for i := range ids {
		ids[i] = start + i
	}
	return ids
}

// MemoryNode returns the memory node holding a worker's data: all workers of
// class 0 (the host CPUs) share node 0; every worker of an accelerator class
// has a private node. Node IDs are dense, 0-based.
func (p *Platform) MemoryNode(w int) int {
	c := p.WorkerClass(w)
	if c == 0 {
		return 0
	}
	// Node of accelerator worker = 1 + its index among non-class-0 workers.
	node := 1
	for i := 1; i < c; i++ {
		node += p.Classes[i].Count
	}
	offset := w
	for i := 0; i < c; i++ {
		offset -= p.Classes[i].Count
	}
	return node + offset
}

// NodeClass returns the class owning a memory node (node 0 is the host,
// class 0; accelerator nodes follow class by class).
func (p *Platform) NodeClass(node int) int {
	if node == 0 {
		return 0
	}
	n := node - 1
	for c := 1; c < len(p.Classes); c++ {
		if n < p.Classes[c].Count {
			return c
		}
		n -= p.Classes[c].Count
	}
	panic(fmt.Sprintf("platform: memory node %d out of range", node))
}

// NodeCapacityTiles returns how many tiles fit in a memory node
// (0 = unlimited; the host is always unlimited).
func (p *Platform) NodeCapacityTiles(node int) int {
	if node == 0 || p.TileBytes <= 0 {
		return 0
	}
	mb := p.Classes[p.NodeClass(node)].MemoryBytes
	if mb <= 0 {
		return 0
	}
	return int(mb / p.TileBytes)
}

// MemoryNodes returns the total number of memory nodes.
func (p *Platform) MemoryNodes() int {
	n := 1
	for i := 1; i < len(p.Classes); i++ {
		n += p.Classes[i].Count
	}
	return n
}

// SpeedupTable returns, for each kernel kind in kinds, the acceleration
// factor of class `fast` relative to class `slow` (Table I of the paper:
// GPU vs CPU on Mirage ⇒ ≈2×, 11×, 26×, 29×).
func (p *Platform) SpeedupTable(slow, fast int, kinds []graph.Kind) map[graph.Kind]float64 {
	out := map[graph.Kind]float64{}
	for _, k := range kinds {
		out[k] = p.Time(slow, k) / p.Time(fast, k)
	}
	return out
}

// AccelerationFactor computes the task-count-weighted mean GPU speedup K for
// a DAG, the quantity defining the paper's "heterogeneous related" platform:
//
//	K = (Σ_t N_t · a_t) / (Σ_t N_t)
//
// With the Mirage model and Cholesky DAGs this reproduces the paper's values
// 17.30, 22.30, 24.30, 25.38, 26.06, 26.52, 26.86, 27.11 for p = 4..32.
func (p *Platform) AccelerationFactor(d *graph.DAG, slow, fast int) float64 {
	// Sum in ascending kind order: float rounding must not depend on map
	// iteration order.
	counts := d.CountByKind()
	num, den := 0.0, 0.0
	for _, kind := range d.Kinds() {
		n := counts[kind]
		num += float64(n) * p.Time(slow, kind) / p.Time(fast, kind)
		den += float64(n)
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// GemmPeakGFlops returns the paper's "GEMM peak": the aggregate GFLOP/s of
// the whole platform running nothing but GEMM kernels, given the per-tile
// GEMM flop count.
func (p *Platform) GemmPeakGFlops(gemmFlops float64) float64 {
	s := 0.0
	for i := range p.Classes {
		c := &p.Classes[i]
		if !c.CanRun(graph.GEMM) {
			continue
		}
		s += float64(c.Count) * gemmFlops / p.Time(i, graph.GEMM)
	}
	return s / 1e9
}

// Clone returns a deep copy of the platform.
func (p *Platform) Clone() *Platform {
	q := *p
	q.Classes = make([]Class, len(p.Classes))
	for i, c := range p.Classes {
		nc := c
		nc.Times = make(map[graph.Kind]float64, len(c.Times))
		for k, v := range c.Times {
			nc.Times[k] = v
		}
		if c.TimesByNB != nil {
			nc.TimesByNB = make(map[int]map[graph.Kind]float64, len(c.TimesByNB))
			for nb, times := range c.TimesByNB {
				tm := make(map[graph.Kind]float64, len(times))
				for k, v := range times {
					tm[k] = v
				}
				nc.TimesByNB[nb] = tm
			}
		}
		q.Classes[i] = nc
	}
	return &q
}
