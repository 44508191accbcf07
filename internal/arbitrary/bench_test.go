package arbitrary

import (
	"testing"

	"adjstream/internal/gen"
)

// BenchmarkArbFourCycle is the benchdiff gate key for the arbitrary-order
// 4-cycle family: one full 3-pass run per iteration. The threepass and
// nearopt rows build every copy from zero state on ER(400, 0.05), which
// has no hubs, at a mid-range rate. The powerlaw-shuffled rows run
// perfbench's cl2k shape, Chung–Lu(2000, 2.2, 400), in a FromGraph shuffle
// at the facade's rate p = 0.05, handing each copy back with Recycle as the
// facade does. In a shuffle consecutive edges rarely share an endpoint, so
// pass three rebuilds its marks on nearly every edge it counts.
func BenchmarkArbFourCycle(b *testing.B) {
	g, err := gen.ErdosRenyi(400, 0.05, 11)
	if err != nil {
		b.Fatal(err)
	}
	s := FromGraph(g, 3)
	b.Run("threepass", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			alg, err := NewThreePassFourCycle(0.3, uint64(i)+1)
			if err != nil {
				b.Fatal(err)
			}
			Run(s, alg)
			_ = alg.Estimate()
		}
	})
	b.Run("nearopt", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			alg, err := NewNearOptFourCycle(0.3, 0, uint64(i)+1)
			if err != nil {
				b.Fatal(err)
			}
			Run(s, alg)
			_ = alg.Estimate()
		}
	})

	cl, err := gen.ChungLu(2000, 2.2, 400, 1)
	if err != nil {
		b.Fatal(err)
	}
	shuffled := FromGraph(cl, 3)
	for _, row := range []struct {
		name string
		make func(seed uint64) (Estimator, error)
	}{
		{"threepass", func(seed uint64) (Estimator, error) { return NewThreePassFourCycle(0.05, seed) }},
		{"nearopt", func(seed uint64) (Estimator, error) { return NewNearOptFourCycle(0.05, 0, seed) }},
	} {
		b.Run("powerlaw-shuffled/"+row.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				alg, err := row.make(uint64(i) + 1)
				if err != nil {
					b.Fatal(err)
				}
				Run(shuffled, alg)
				_ = alg.Estimate()
				alg.(interface{ Recycle() }).Recycle()
			}
		})
	}
}
