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
		cs.M, cs.Pairs, cs.Detail = a.M(), a.PairsTracked(), namedPairs(&a.tracker)
	case *NearOptFourCycle:
		cs.M, cs.Pairs, cs.Detail = a.M(), a.PairsTracked(), namedPairs(&a.tracker)
	}
	return cs
}

// runPartly runs a's passes before pass and half of pass itself over s,
// as far as a has them, leaving a state no completed run leaves.
func runPartly(s *Stream, a Estimator, pass int) {
	for p := 0; p <= pass && p < a.Passes(); p++ {
		a.StartPass(p)
		edges := s.Edges()
		if p == pass {
			edges = edges[:s.M()/2]
		}
		for _, e := range edges {
			a.Edge(e.U, e.V)
		}
		if p < pass {
			a.EndPass(p)
		}
	}
}

// idsOf returns how many vertex ids e's state gives out, or −1 for an
// estimator that keeps none.
func idsOf(e Estimator) int {
	switch a := e.(type) {
	case *TwoPassWedge:
		return a.vertices.len()
	case *ThreePassFourCycle:
		return a.vertices.len()
	case *NearOptFourCycle:
		return a.vertices.len()
	}
	return -1
}

// TestRecycledArbitraryCopiesMatchFresh inits each arbitrary-order
// estimator on a state spent under another p, q, instance count, universe
// and seed, over a larger graph of another kind (and on a state left in the
// middle of pass two or of pass three, where the marks live, on one spent
// by the same configuration over a graph that gives out more vertex ids,
// and on one spent by the same configuration on the target), and requires
// what a zero-state copy reports: the estimate bits, the space words, m,
// PairsTracked and every tracked pair's endpoint names, co-degree, weight
// and disc/est flags (every sampler instance for Buriol's). A field init
// forgets to reset shows up here.
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
			if _, ok := want.Detail.([]namedPair); ok && want.Pairs == 0 {
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
				"abandoned in pass two": func(e Estimator) error {
					if err := c.spend(e); err != nil {
						return err
					}
					runPartly(spent, e, 1)
					return nil
				},
				"abandoned in pass three": func(e Estimator) error {
					if err := c.spend(e); err != nil {
						return err
					}
					runPartly(spent, e, 2)
					return nil
				},
				"more vertex ids": func(e Estimator) error {
					if err := c.target(e); err != nil {
						return err
					}
					Run(spent, e)
					if idsOf(e) >= 0 && idsOf(e) <= idsOf(fresh) {
						t.Fatalf("the spent state gave out %d vertex ids, the target's %d: want more", idsOf(e), idsOf(fresh))
					}
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
