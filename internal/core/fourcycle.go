package core

import (
	"fmt"
	"slices"

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

// sampledWedge is one wedge a–center–b formed by two sampled edges; a and b
// are the endpoints of its slab node, so a list naming both closes a
// 4-cycle through it in pass two.
type sampledWedge struct {
	center graph.V
	count  int64 // T_w: 4-cycles through this wedge
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
	sampler sampling.EdgeSampler // one of samp's two
	samp    samplers

	lists       vertexLists
	wedges      bag[sampledWedge]            // Q; slot j is slot j of kept under a cap
	kept        sampling.Reservoir[struct{}] // under a WedgeCap
	incident    []uint64                     // buildWedges' scratch
	totalWedges int64                        // wedges formed (before any cap)

	pass  int
	items int64
	m     int64
	meter space.Meter
	tele  estTele
}

var _ stream.Estimator = (*TwoPassFourCycle)(nil)

var twoPassFourCycles pool[TwoPassFourCycle]

// NewTwoPassFourCycle validates cfg and returns the estimator, built on a
// recycled state when there is one.
func NewTwoPassFourCycle(cfg FourCycleConfig) (*TwoPassFourCycle, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	f := twoPassFourCycles.get()
	if err := f.init(cfg); err != nil {
		return nil, err
	}
	return f, nil
}

// init makes f a fresh estimator for the validated cfg, keeping the memory
// of its state. The wedge reservoir is readied by buildWedges.
func (f *TwoPassFourCycle) init(cfg FourCycleConfig) error {
	sampler, err := f.samp.init(cfg.SampleSize, cfg.SampleProb, cfg.Seed, nil)
	if err != nil {
		return err
	}
	f.cfg, f.sampler = cfg, sampler
	f.lists.reset()
	f.wedges.init(&f.lists, 0)
	f.incident = f.incident[:0]
	f.totalWedges = 0
	f.pass, f.items, f.m = 0, 0, 0
	f.meter = space.Meter{}
	f.tele = newEstTele("twopass_fourcycle", &f.meter)
	return nil
}

// Recycle hands f's state to a later NewTwoPassFourCycle, which reuses its
// memory. Call it once f's run has completed and every result read from f
// is taken; f must not be used afterwards.
func (f *TwoPassFourCycle) Recycle() { twoPassFourCycles.put(f) }

// Passes implements stream.Algorithm.
func (f *TwoPassFourCycle) Passes() int { return 2 }

// StartPass implements stream.Algorithm.
func (f *TwoPassFourCycle) StartPass(p int) {
	f.pass = p
}

// StartList implements stream.Algorithm.
func (f *TwoPassFourCycle) StartList(owner graph.V) {
	if f.pass == 1 {
		f.wedges.nextList()
	}
}

// Edge implements stream.Algorithm.
func (f *TwoPassFourCycle) Edge(owner, nbr graph.V) {
	switch f.pass {
	case 0:
		f.items++
		f.sampler.Offer(owner, nbr)
	case 1:
		e := f.lists.find(nbr)
		if e == nil {
			return
		}
		for _, id := range f.lists.ids(e[0]) {
			// owner adjacent to both wedge endpoints closes a 4-cycle,
			// unless owner is the wedge's own center.
			if f.wedges.closes(id) {
				if w := &f.wedges.ent[id].val; owner != w.center {
					w.count++
				}
			}
		}
	}
}

// EndList implements stream.Algorithm.
func (f *TwoPassFourCycle) EndList(owner graph.V) {}

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
	f.tele.pairsKept.Set(int64(f.WedgesKept()))
	f.tele.pairsFound.Add(f.totalWedges)
	f.tele.liveWords.Set(f.meter.Live())
}

// buildWedges forms Q, the wedges inside the final edge sample, visiting
// centers in ascending order and each center's neighbour pairs in
// ascending order — the order the wedge reservoir sees.
func (f *TwoPassFourCycle) buildWedges() {
	// center<<32 | neighbour, for both orientations of each sampled edge:
	// its PackEdge key and the key with its halves swapped.
	incident := f.sampler.AppendKeys(f.incident[:0])
	for _, key := range incident {
		incident = append(incident, key<<32|key>>32)
	}
	f.incident = incident
	slices.Sort(incident)
	if f.cfg.WedgeCap > 0 {
		f.kept.Init(f.cfg.WedgeCap, f.cfg.Seed^0x77ed_21f3)
	}
	for lo, hi := 0, 0; lo < len(incident); lo = hi {
		c := incident[lo] >> 32
		for hi = lo; hi < len(incident) && incident[hi]>>32 == c; hi++ {
		}
		for i := lo; i < hi; i++ {
			for j := i + 1; j < hi; j++ {
				f.keepWedge(graph.V(uint32(incident[i])), graph.V(c), graph.V(uint32(incident[j])))
			}
		}
	}
}

// keepWedge offers the wedge a–center–b to Q. Under a cap the reservoir
// picks its slot, unlinking the wedge it replaces; otherwise it is added.
func (f *TwoPassFourCycle) keepWedge(a, center, b graph.V) {
	f.totalWedges++
	slot, replaced := len(f.wedges.ent), false
	if f.cfg.WedgeCap > 0 {
		if slot, replaced = f.kept.OfferSlot(struct{}{}); slot < 0 {
			return
		}
	}
	if replaced {
		f.wedges.remove(int32(slot))
		f.meter.Release(space.WordsPerWedge + space.WordsPerCounter)
	}
	f.wedges.put(int32(slot), a, b, sampledWedge{center: center})
	f.meter.Charge(space.WordsPerWedge + space.WordsPerCounter)
}

// Estimate returns Σ_{w∈Q} T_w · dilution / (4·p₂), where p₂ is the
// probability both edges of a wedge are sampled and dilution corrects for a
// WedgeCap reservoir. Each 4-cycle has exactly four wedges, hence the 1/4.
func (f *TwoPassFourCycle) Estimate() float64 {
	sum := f.CyclesThroughSampledWedges()
	p2 := f.sampler.PairInclusionProb(f.m)
	if p2 <= 0 {
		return 0
	}
	dilution := 1.0
	if kept := int64(f.WedgesKept()); f.cfg.WedgeCap > 0 && f.totalWedges > kept && kept > 0 {
		dilution = float64(f.totalWedges) / float64(kept)
	}
	return float64(sum) * dilution / (4 * p2)
}

// SpaceWords implements stream.Estimator.
func (f *TwoPassFourCycle) SpaceWords() int64 {
	return f.meter.Peak()
}

// WedgesFormed returns the total number of wedges formed inside the sample
// (before any cap).
func (f *TwoPassFourCycle) WedgesFormed() int64 { return f.totalWedges }

// WedgesKept returns |Q| after any cap.
func (f *TwoPassFourCycle) WedgesKept() int {
	return f.wedges.live
}

// CyclesThroughSampledWedges returns Σ_{w∈Q} T_w, the raw pass-two count.
func (f *TwoPassFourCycle) CyclesThroughSampledWedges() int64 {
	var sum int64
	for i := range f.wedges.ent {
		sum += f.wedges.ent[i].val.count
	}
	return sum
}

// M returns the edge count measured in pass one.
func (f *TwoPassFourCycle) M() int64 { return f.m }
