package arbitrary

import (
	"math"
	"reflect"
	"testing"

	"adjstream/internal/gen"
)

// recycleCase inits one estimator type on a given state: spend with the
// configuration a state is spent under, target with the one it is then
// recycled into.
type recycleCase struct {
	name          string
	zero          func() Estimator
	spend, target func(e Estimator) error
}

func recycleCases() []recycleCase {
	return []recycleCase{
		{
			name:   "twopass-wedge",
			zero:   func() Estimator { return new(TwoPassWedge) },
			spend:  func(e Estimator) error { return e.(*TwoPassWedge).init(0.9, 71) },
			target: func(e Estimator) error { return e.(*TwoPassWedge).init(0.35, 5) },
		},
		{
			name:   "buriol",
			zero:   func() Estimator { return new(BuriolSampler) },
			spend:  func(e Estimator) error { e.(*BuriolSampler).init(900, 700, 71); return nil },
			target: func(e Estimator) error { e.(*BuriolSampler).init(300, 80, 5); return nil },
		},
		{
			name:   "threepass-fourcycle",
			zero:   func() Estimator { return new(ThreePassFourCycle) },
			spend:  func(e Estimator) error { return e.(*ThreePassFourCycle).init(0.9, 71) },
			target: func(e Estimator) error { return e.(*ThreePassFourCycle).init(0.4, 5) },
		},
		{
			name:   "nearopt-fourcycle",
			zero:   func() Estimator { return new(NearOptFourCycle) },
			spend:  func(e Estimator) error { return e.(*NearOptFourCycle).init(0.8, 0.95, 71) },
			target: func(e Estimator) error { return e.(*NearOptFourCycle).init(0.2, math.Sqrt(0.2), 5) },
		},
		{
			name:   "nearopt-fourcycle/q0.6",
			zero:   func() Estimator { return new(NearOptFourCycle) },
			spend:  func(e Estimator) error { return e.(*NearOptFourCycle).init(0.3, 0.3, 71) },
			target: func(e Estimator) error { return e.(*NearOptFourCycle).init(0.2, 0.6, 5) },
		},
	}
}

// copyState is what a completed copy reports, plus every tracked pair (or
// sampler instance) behind it.
type copyState struct {
	EstimateBits uint64
	Space, M     int64
	Pairs        int64
	Detail       any
}

func stateOf(e Estimator) copyState {
	cs := copyState{EstimateBits: math.Float64bits(e.Estimate()), Space: e.SpaceWords()}
	switch a := e.(type) {
	case *TwoPassWedge:
		cs.M, cs.Detail = a.M(), [2]int64{a.WedgesFormed(), a.closed}
	case *BuriolSampler:
		cs.M, cs.Detail = a.M(), append([]buriolInstance(nil), a.inst...)
	case *ThreePassFourCycle:
		cs.M, cs.Pairs, cs.Detail = a.M(), a.PairsTracked(), append([]trackedPair(nil), a.tracker.pairs...)
	case *NearOptFourCycle:
		cs.M, cs.Pairs, cs.Detail = a.M(), a.PairsTracked(), append([]trackedPair(nil), a.tracker.pairs...)
	}
	return cs
}

// runPartly runs a's first pass and half of its second over s, leaving a
// state no completed run leaves.
func runPartly(s *Stream, a Estimator) {
	a.StartPass(0)
	for _, e := range s.Edges() {
		a.Edge(e.U, e.V)
	}
	a.EndPass(0)
	if a.Passes() > 1 {
		a.StartPass(1)
		for _, e := range s.Edges()[:s.M()/2] {
			a.Edge(e.U, e.V)
		}
	}
}

// TestRecycledArbitraryCopiesMatchFresh inits each arbitrary-order
// estimator on a state spent under another p, q, instance count, universe
// and seed, over a larger graph of another kind (and on a state left in the
// middle of a pass, and on one spent by the same configuration), and
// requires what a zero-state copy reports: the estimate bits, the space
// words, m, PairsTracked and every tracked pair's endpoints, co-degree,
// weight and disc/est flags (every sampler instance for Buriol's). A field
// init forgets to reset shows up here.
func TestRecycledArbitraryCopiesMatchFresh(t *testing.T) {
	small, err := gen.ErdosRenyi(80, 0.15, 3)
	if err != nil {
		t.Fatal(err)
	}
	large, err := gen.ChungLu(600, 2.2, 120, 4)
	if err != nil {
		t.Fatal(err)
	}
	target, spent := FromGraph(small, 5), FromGraph(large, 6)
	for _, c := range recycleCases() {
		t.Run(c.name, func(t *testing.T) {
			fresh := c.zero()
			if err := c.target(fresh); err != nil {
				t.Fatal(err)
			}
			Run(target, fresh)
			want := stateOf(fresh)
			if want.M != target.M() {
				t.Fatalf("fresh copy measured m = %d, want %d", want.M, target.M())
			}
			if _, ok := want.Detail.([]trackedPair); ok && want.Pairs == 0 {
				t.Fatal("fresh copy tracked no pairs: the comparison is vacuous")
			}
			spenders := map[string]func(e Estimator) error{
				"other config, larger graph": func(e Estimator) error {
					if err := c.spend(e); err != nil {
						return err
					}
					Run(spent, e)
					return nil
				},
				"abandoned mid-pass": func(e Estimator) error {
					if err := c.spend(e); err != nil {
						return err
					}
					runPartly(spent, e)
					return nil
				},
				"same config twice": func(e Estimator) error {
					for i := 0; i < 2; i++ {
						if err := c.target(e); err != nil {
							return err
						}
						Run(target, e)
					}
					return nil
				},
			}
			for how, spend := range spenders {
				e := c.zero()
				if err := spend(e); err != nil {
					t.Fatal(err)
				}
				if err := c.target(e); err != nil {
					t.Fatal(err)
				}
				Run(target, e)
				if got := stateOf(e); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: recycled copy reports %+v, want %+v", how, summary(got), summary(want))
				}
			}
		})
	}
}

// summary drops the per-pair detail from an error message.
func summary(cs copyState) copyState {
	cs.Detail = nil
	return cs
}
