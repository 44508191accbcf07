package core

import (
	"fmt"
	"sort"

	"adjstream/internal/graph"
	"adjstream/internal/sampling"
	"adjstream/internal/space"
	"adjstream/internal/stream"
)

// FourCycleConfig parameterizes the two-pass 4-cycle estimator.
type FourCycleConfig struct {
	// SampleSize m′ selects bottom-k edge sampling. Exactly one of
	// SampleSize / SampleProb must be set.
	SampleSize int
	// SampleProb selects independent per-edge hash sampling.
	SampleProb float64
	// WedgeCap optionally bounds the wedge set Q by reservoir sampling
	// (0 = keep every wedge formed inside the sample, as in the paper).
	WedgeCap int
	// Seed drives all sampling decisions deterministically.
	Seed uint64
}

func (c FourCycleConfig) validate() error {
	hasSize := c.SampleSize > 0
	hasProb := c.SampleProb > 0
	if hasSize == hasProb {
		return fmt.Errorf("core: exactly one of SampleSize and SampleProb must be set (size=%d prob=%v)", c.SampleSize, c.SampleProb)
	}
	if hasProb && c.SampleProb > 1 {
		return fmt.Errorf("core: SampleProb %v > 1", c.SampleProb)
	}
	if c.WedgeCap < 0 {
		return fmt.Errorf("core: negative WedgeCap %d", c.WedgeCap)
	}
	return nil
}

// sampledWedge is one wedge a–center–b formed by two sampled edges, with the
// flag state for counting the 4-cycles that contain it in pass two.
type sampledWedge struct {
	a, center, b graph.V
	flagA, flagB bool
	count        int64 // T_w: 4-cycles through this wedge
}

// TwoPassFourCycle is the paper's Theorem 4.6 algorithm: pass one samples a
// set S of edges; the wedge set Q consists of the wedges formed by pairs of
// sampled edges sharing an endpoint; pass two counts, for each wedge w ∈ Q,
// the exact number T_w of 4-cycles containing it (every list owner adjacent
// to both wedge endpoints, other than the center, closes one). The estimate
// Σ T_w / (4·Pr[both wedge edges sampled]) is an O(1)-factor approximation:
// Lemma 4.2 guarantees a constant fraction of 4-cycles contain a "good"
// wedge, which bounds the variance, while each cycle has exactly four
// wedges, which centers the estimator.
//
// Unlike the triangle algorithm, pass two need not replay pass one's order.
type TwoPassFourCycle struct {
	cfg     FourCycleConfig
	sampler sampling.EdgeSampler

	wedges      []*sampledWedge
	byVertex    map[graph.V][]*sampledWedge
	dirty       []*sampledWedge
	totalWedges int64 // wedges formed (before any cap)

	pass  int
	items int64
	m     int64
	meter space.Meter
	tele  estTele

	// Restored-run summary (state.go); nil unless Restore was called.
	snap       *stream.CopyState
	snapKept   int
	snapCycles int64
}

var _ stream.Estimator = (*TwoPassFourCycle)(nil)

// NewTwoPassFourCycle validates cfg and returns the estimator.
func NewTwoPassFourCycle(cfg FourCycleConfig) (*TwoPassFourCycle, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	f := &TwoPassFourCycle{cfg: cfg, byVertex: make(map[graph.V][]*sampledWedge)}
	if cfg.SampleSize > 0 {
		f.sampler = sampling.NewBottomK(cfg.SampleSize, cfg.Seed, nil)
	} else {
		fp, err := sampling.NewFixedProb(cfg.SampleProb, cfg.Seed)
		if err != nil {
			return nil, err
		}
		f.sampler = fp
	}
	f.tele = newEstTele("twopass_fourcycle", &f.meter)
	return f, nil
}

// Passes implements stream.Algorithm.
func (f *TwoPassFourCycle) Passes() int { return 2 }

// StartPass implements stream.Algorithm.
func (f *TwoPassFourCycle) StartPass(p int) {
	f.pass = p
}

// StartList implements stream.Algorithm.
func (f *TwoPassFourCycle) StartList(owner graph.V) {}

// Edge implements stream.Algorithm.
func (f *TwoPassFourCycle) Edge(owner, nbr graph.V) {
	switch f.pass {
	case 0:
		f.items++
		f.sampler.Offer(owner, nbr)
	case 1:
		for _, w := range f.byVertex[nbr] {
			if !w.flagA && !w.flagB {
				f.dirty = append(f.dirty, w)
			}
			if nbr == w.a {
				w.flagA = true
			}
			if nbr == w.b {
				w.flagB = true
			}
		}
	}
}

// EndList implements stream.Algorithm.
func (f *TwoPassFourCycle) EndList(owner graph.V) {
	if f.pass != 1 {
		return
	}
	for _, w := range f.dirty {
		// owner adjacent to both wedge endpoints closes a 4-cycle, unless
		// owner is the wedge's own center.
		if w.flagA && w.flagB && owner != w.center {
			w.count++
		}
		w.flagA, w.flagB = false, false
	}
	f.dirty = f.dirty[:0]
}

// EndPass implements stream.Algorithm.
func (f *TwoPassFourCycle) EndPass(p int) {
	if p != 0 {
		f.tele.liveWords.Set(f.meter.Live())
		return
	}
	f.m = f.items / 2
	f.meter.Charge(int64(f.sampler.Len()) * space.WordsPerEdge)
	f.buildWedges()
	f.tele.occupancy.Set(int64(f.sampler.Len()))
	f.tele.pairsKept.Set(int64(len(f.wedges)))
	f.tele.pairsFound.Add(f.totalWedges)
	f.tele.liveWords.Set(f.meter.Live())
}

// buildWedges forms Q, the wedges inside the final edge sample.
func (f *TwoPassFourCycle) buildWedges() {
	incident := make(map[graph.V][]graph.V)
	for _, e := range f.sampledEdges() {
		incident[e.U] = append(incident[e.U], e.V)
		incident[e.V] = append(incident[e.V], e.U)
	}
	var res *sampling.Reservoir[*sampledWedge]
	if f.cfg.WedgeCap > 0 {
		res = sampling.NewReservoir[*sampledWedge](f.cfg.WedgeCap, f.cfg.Seed^0x77ed_21f3)
	}
	// Deterministic center order for reproducibility.
	centers := make([]graph.V, 0, len(incident))
	for c := range incident {
		centers = append(centers, c)
	}
	sort.Slice(centers, func(i, j int) bool { return centers[i] < centers[j] })
	for _, c := range centers {
		ns := incident[c]
		sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
		for i := 0; i < len(ns); i++ {
			for j := i + 1; j < len(ns); j++ {
				f.totalWedges++
				w := &sampledWedge{a: ns[i], center: c, b: ns[j]}
				if res == nil {
					f.keepWedge(w)
					continue
				}
				if victim, evicted, accepted := res.Offer(w); accepted {
					if evicted {
						f.dropWedge(victim)
					}
					f.keepWedge(w)
				}
			}
		}
	}
}

func (f *TwoPassFourCycle) keepWedge(w *sampledWedge) {
	f.wedges = append(f.wedges, w)
	f.byVertex[w.a] = append(f.byVertex[w.a], w)
	f.byVertex[w.b] = append(f.byVertex[w.b], w)
	f.meter.Charge(space.WordsPerWedge + space.WordsPerCounter)
}

func (f *TwoPassFourCycle) dropWedge(w *sampledWedge) {
	// Lazy removal: mark by zeroing; dropped wedges are filtered at
	// Estimate time and skipped by making them unreachable from wedges.
	for i, x := range f.wedges {
		if x == w {
			f.wedges[i] = f.wedges[len(f.wedges)-1]
			f.wedges = f.wedges[:len(f.wedges)-1]
			break
		}
	}
	w.count = -1 << 62 // poison so byVertex leftovers cannot contribute
	f.meter.Release(space.WordsPerWedge + space.WordsPerCounter)
}

func (f *TwoPassFourCycle) sampledEdges() []graph.Edge {
	switch s := f.sampler.(type) {
	case *sampling.BottomK:
		return s.Edges()
	case *sampling.FixedProb:
		return s.Edges()
	default:
		return nil
	}
}

// Estimate returns Σ_{w∈Q} T_w · dilution / (4·p₂), where p₂ is the
// probability both edges of a wedge are sampled and dilution corrects for a
// WedgeCap reservoir. Each 4-cycle has exactly four wedges, hence the 1/4.
func (f *TwoPassFourCycle) Estimate() float64 {
	if f.snap != nil {
		return f.snap.Estimate
	}
	var sum int64
	for _, w := range f.wedges {
		if w.count > 0 {
			sum += w.count
		}
	}
	p2 := f.pairInclusionProb()
	if p2 <= 0 {
		return 0
	}
	dilution := 1.0
	if f.cfg.WedgeCap > 0 && f.totalWedges > int64(len(f.wedges)) && len(f.wedges) > 0 {
		dilution = float64(f.totalWedges) / float64(len(f.wedges))
	}
	return float64(sum) * dilution / (4 * p2)
}

// pairInclusionProb returns Pr[both edges of a fixed wedge are in S].
func (f *TwoPassFourCycle) pairInclusionProb() float64 {
	switch s := f.sampler.(type) {
	case *sampling.BottomK:
		if f.m < 2 {
			return 1
		}
		sz := int64(f.cfg.SampleSize)
		if f.m < sz {
			sz = f.m
		}
		return float64(sz) * float64(sz-1) / (float64(f.m) * float64(f.m-1))
	case *sampling.FixedProb:
		return s.P() * s.P()
	default:
		return 0
	}
}

// SpaceWords implements stream.Estimator.
func (f *TwoPassFourCycle) SpaceWords() int64 {
	if f.snap != nil {
		return f.snap.SpaceWords
	}
	return f.meter.Peak()
}

// WedgesFormed returns the total number of wedges formed inside the sample
// (before any cap).
func (f *TwoPassFourCycle) WedgesFormed() int64 { return f.totalWedges }

// WedgesKept returns |Q| after any cap.
func (f *TwoPassFourCycle) WedgesKept() int {
	if f.snap != nil {
		return f.snapKept
	}
	return len(f.wedges)
}

// CyclesThroughSampledWedges returns Σ_{w∈Q} T_w, the raw pass-two count.
func (f *TwoPassFourCycle) CyclesThroughSampledWedges() int64 {
	if f.snap != nil {
		return f.snapCycles
	}
	var sum int64
	for _, w := range f.wedges {
		if w.count > 0 {
			sum += w.count
		}
	}
	return sum
}

// M returns the edge count measured in pass one.
func (f *TwoPassFourCycle) M() int64 { return f.m }
