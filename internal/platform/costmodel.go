package platform

import (
	"math"

	"repro/internal/graph"
	"repro/internal/kernels"
)

// CostModel prices kernel executions and data movement as a function of tile
// size, generalizing the fixed-nb timing tables {T_rt} into {T_rt(nb)}. All
// consumers of per-task costs (simulator, schedulers, CP solver, bound LPs)
// go through this interface, so a single model swap re-prices every layer
// consistently.
//
// Implementations must guarantee (see DESIGN.md "Cost-model contract"):
//
//   - positivity: Time returns a positive finite value or +Inf (unsupported);
//   - determinism: equal arguments yield bit-equal results, with no hidden
//     state, clocks, or randomness;
//   - reference identity: Time(r, k, 0) and Time(r, k, DefaultNB()) equal the
//     calibrated table entry bit-for-bit, so uniform-tile runs reproduce the
//     fixed-nb behaviour exactly;
//   - monotonicity in nb for the BLAS-3 kernels (more flops never run
//     faster on the same class).
type CostModel interface {
	// Time returns the execution time of kind on class r at tile size nb
	// (elements per side); nb = 0 means the platform reference size.
	Time(class int, kind graph.Kind, nb int) float64
	// TransferTime returns the time to move `bytes` over one bus link —
	// actual tile bytes, not the uniform-tile TileBytes constant.
	TransferTime(bytes float64) float64
}

// Cost-model names stored in Platform.Model and schema-v2 platform files.
const (
	ModelTable  = "table"
	ModelScaled = "scaled"
)

// ConvBandwidthBps is the modelled host-side repacking rate of the SPLIT and
// MERGE tile-conversion tasks: a memory-bound copy between a coarse tile and
// its subtiles, charged at sustained host memcpy bandwidth.
const ConvBandwidthBps = 8e9

// convTime prices a SPLIT/MERGE task converting an nb×nb coarse tile.
// Conversions repack host-side buffers, so only class 0 runs them.
func convTime(p *Platform, class, nb int) float64 {
	if class != 0 {
		return math.Inf(1)
	}
	if nb <= 0 {
		nb = p.DefaultNB()
	}
	return float64(nb) * float64(nb) * 8 / ConvBandwidthBps
}

// KindFlops returns the per-tile floating-point operation count of kind at
// tile size nb — the weights that scale calibrated times across sizes (and
// the per-size weights of the area bound).
func KindFlops(k graph.Kind, nb int) float64 {
	switch k {
	case graph.POTRF:
		return kernels.PotrfFlops(nb)
	case graph.TRSM:
		return kernels.TrsmFlops(nb)
	case graph.SYRK:
		return kernels.SyrkFlops(nb)
	case graph.GEMM:
		return kernels.GemmFlops(nb)
	case graph.GETRF:
		return kernels.GetrfFlops(nb)
	case graph.GEQRT:
		return kernels.GeqrtFlops(nb)
	case graph.ORMQR:
		return kernels.OrmqrFlops(nb)
	case graph.TSQRT:
		return kernels.TsqrtFlops(nb)
	case graph.TSMQR:
		return kernels.TsmqrFlops(nb)
	case graph.TRSV:
		return kernels.TrsvFlops(nb)
	case graph.GEMV:
		return kernels.GemvFlops(nb)
	}
	return 0
}

// Efficiency models the sustained-throughput penalty of small tiles: full
// efficiency at and above refNB, dropping smoothly below (a tile of 1/4 the
// reference size runs at ≈70 % efficiency, matching typical BLAS curves).
// Moved here from internal/autotune so the scaled cost model and the tile-
// size sweep share one curve; autotune.Efficiency delegates to this.
func Efficiency(nb, refNB int) float64 {
	if nb >= refNB {
		return 1
	}
	r := float64(nb) / float64(refNB)
	return 0.55 + 0.45*math.Sqrt(r)
}

// TableModel prices exactly the calibrated tile sizes: the reference tables
// at nb = 0 / DefaultNB, the per-size TimesByNB tables where present, and
// +Inf everywhere else. It reproduces the pre-redesign fixed-nb costs
// bit-identically.
type TableModel struct {
	P *Platform
}

// Time implements CostModel.
func (m TableModel) Time(class int, kind graph.Kind, nb int) float64 {
	if kind.IsConversion() {
		return convTime(m.P, class, nb)
	}
	if nb == 0 || nb == m.P.DefaultNB() {
		return m.P.Time(class, kind)
	}
	if times, ok := m.P.Classes[class].TimesByNB[nb]; ok {
		if t, ok := times[kind]; ok {
			return t
		}
	}
	return math.Inf(1)
}

// TransferTime implements CostModel.
func (m TableModel) TransferTime(bytes float64) float64 { return m.P.Bus.TransferTime(bytes) }

// ScaledModel generalizes autotune's ScalePlatform into the cost-model API:
// off-reference sizes are priced by scaling the calibrated time with the
// kernel's flop ratio, damped by the small-tile efficiency curve. Exact-size
// TimesByNB tables, where present, take precedence over scaling.
type ScaledModel struct {
	P *Platform
	// RefNB is the calibration size scaling is anchored at.
	RefNB int
}

// NewScaledModel returns the scaled model anchored at refNB (0 = platform
// default).
func NewScaledModel(p *Platform, refNB int) ScaledModel {
	if refNB <= 0 {
		refNB = p.DefaultNB()
	}
	return ScaledModel{P: p, RefNB: refNB}
}

// Time implements CostModel. The nb = RefNB fast path returns the table
// entry itself, and the scaling expression matches autotune.ScalePlatform
// term for term, so ScalePlatform-derived platforms and this model agree
// bit-for-bit (pinned by TestScalePlatformMatchesScaledModel).
func (m ScaledModel) Time(class int, kind graph.Kind, nb int) float64 {
	if kind.IsConversion() {
		return convTime(m.P, class, nb)
	}
	t := m.P.Time(class, kind)
	if nb == 0 || nb == m.RefNB {
		return t
	}
	if times, ok := m.P.Classes[class].TimesByNB[nb]; ok {
		if tt, ok := times[kind]; ok {
			return tt
		}
	}
	if math.IsInf(t, 1) {
		return t
	}
	r := KindFlops(kind, nb) / KindFlops(kind, m.RefNB)
	return t * r / Efficiency(nb, m.RefNB)
}

// TransferTime implements CostModel.
func (m ScaledModel) TransferTime(bytes float64) float64 { return m.P.Bus.TransferTime(bytes) }

// CostModel returns the platform's cost model as selected by Model
// (ModelTable when empty).
func (p *Platform) CostModel() CostModel {
	if p.Model == ModelScaled {
		return NewScaledModel(p, p.DefaultNB())
	}
	return TableModel{P: p}
}

// TimeNB returns T_rt(nb) under the platform's cost model. nb = 0 (the
// uniform-DAG convention) returns the calibrated Time(class, kind) exactly.
func (p *Platform) TimeNB(class int, kind graph.Kind, nb int) float64 {
	if p.Model == ModelScaled {
		return NewScaledModel(p, p.DefaultNB()).Time(class, kind, nb)
	}
	return TableModel{P: p}.Time(class, kind, nb)
}

// FastestTimeNB returns min_r T_rt(nb) over classes with workers — the
// size-aware counterpart of FastestTime, equal to it bit-for-bit at nb = 0.
func (p *Platform) FastestTimeNB(kind graph.Kind, nb int) float64 {
	best := math.Inf(1)
	for i := range p.Classes {
		if p.Classes[i].Count == 0 {
			continue
		}
		if t := p.TimeNB(i, kind, nb); t < best {
			best = t
		}
	}
	return best
}

// AverageTimeNB returns the worker-count-weighted mean execution time of kind
// at tile size nb — the size-aware counterpart of AverageTime, equal to it
// bit-for-bit at nb = 0.
func (p *Platform) AverageTimeNB(kind graph.Kind, nb int) float64 {
	sum, n := 0.0, 0
	for i := range p.Classes {
		c := &p.Classes[i]
		if c.Count == 0 {
			continue
		}
		t := p.TimeNB(i, kind, nb)
		if math.IsInf(t, 1) {
			continue
		}
		sum += float64(c.Count) * t
		n += c.Count
	}
	if n == 0 {
		return math.Inf(1)
	}
	return sum / float64(n)
}
