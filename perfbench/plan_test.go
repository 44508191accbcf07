package main

import (
	"reflect"
	"testing"

	"adjstream"
	"adjstream/internal/graph"
)

// schedule is everything a plan sends, for comparing two plans.
type schedule struct {
	Closed []readReq
	Specs  []readReq
	Reads  []timedRead
	Writes []edgeBatch
	Probe  []edgeBatch
}

func scheduleOf(t *testing.T, workload string, seed uint64) (schedule, map[string]*graph.Graph) {
	t.Helper()
	p, graphs, err := newPlan(workload, seed, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := schedule{Specs: append(p.Specs, p.HotQuality...), Reads: p.Reads, Writes: p.Writes, Probe: p.Probe}
	if p.closed() {
		for i := 0; i < 50; i++ {
			s.Closed = append(s.Closed, p.closedRead(i))
		}
	}
	return s, graphs
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloadNames {
		a, ga := scheduleOf(t, w, 7)
		b, gb := scheduleOf(t, w, 7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different schedules", w)
		}
		for name := range ga {
			if !reflect.DeepEqual(ga[name].Edges(), gb[name].Edges()) {
				t.Errorf("%s: seed 7 gave two different graphs %s", w, name)
			}
		}
		c, _ := scheduleOf(t, w, 8)
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", w)
		}
	}
}

func TestScheduleShapes(t *testing.T) {
	p, _, err := newPlan(clusterProxy, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range p.Rotation {
		if s.Spec.Model == "arbitrary" {
			t.Errorf("cluster-proxy sends arbitrary-model shape %s, which bypasses the cluster", s.Label)
		}
	}
	p, _, err = newPlan(hotMix, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Zipf popularity: the top-ranked spec draws about 1/H(64, 1.1) ≈ 0.23
	// of the requests.
	counts := make([]int, len(p.Specs))
	for i := 0; i < 10000; i++ {
		counts[p.hotSpec(i)]++
	}
	if top := counts[p.zipfRank[0]]; top < 2000 || top > 2600 {
		t.Errorf("top hot-mix spec drew %d of 10000 requests", top)
	}
	p, _, err = newPlan(ingestChurn, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range p.Reads {
		if r.Spec < 0 || r.Spec >= len(p.Specs) || (i > 0 && r.Due <= p.Reads[i-1].Due) {
			t.Fatalf("ingest-churn read %d: spec %d due %v", i, r.Spec, r.Due)
		}
	}
}

// Every generated op must be valid when it arrives: applying the fresh
// batches in order to a delta chain never fails, and the result is the
// graph replayOps rebuilds from the op log.
func TestIngestOpsApplyToDelta(t *testing.T) {
	for _, w := range []string{ingestChurn, coldEstimate} {
		p, graphs, err := newPlan(w, 3, 4)
		if err != nil {
			t.Fatal(err)
		}
		batches := p.Writes
		if len(batches) == 0 {
			batches = p.Probe
		}
		g := graphs[p.Graphs[0].Name]
		// The service loads the edge list, which drops isolated vertices.
		g, err = graph.FromEdges(g.Edges())
		if err != nil {
			t.Fatal(err)
		}
		cur, resends := g, 0
		for i, b := range batches {
			if b.Resend {
				resends++
				continue
			}
			d := adjstream.NewDelta(cur)
			for _, e := range b.Req.Add {
				if err := d.Add(graph.V(e[0]), graph.V(e[1])); err != nil {
					t.Fatalf("%s batch %d add %v: %v", w, i, e, err)
				}
			}
			for _, e := range b.Req.Remove {
				if err := d.Remove(graph.V(e[0]), graph.V(e[1])); err != nil {
					t.Fatalf("%s batch %d remove %v: %v", w, i, e, err)
				}
			}
			if got := len(b.Req.Add) + len(b.Req.Remove); got != p.BatchOps {
				t.Fatalf("%s batch %d has %d ops, want %d", w, i, got, p.BatchOps)
			}
			cur = d.Apply()
		}
		if resends == 0 {
			t.Errorf("%s: no batch was resent in %d sends", w, len(batches))
		}
		rebuilt, err := graph.FromEdges(replayOps(g, batches))
		if err != nil {
			t.Fatal(err)
		}
		want, err := fingerprintOf(cur)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := fingerprintOf(rebuilt); got != want {
			t.Errorf("%s: op-log rebuild fingerprint %s, delta chain %s", w, got, want)
		}
	}
}
