package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestSelfTime(t *testing.T) {
	spans := []span{
		// A request: client [0,100) → serve [10,90) → cluster.run [20,80)
		// → three shards, two overlapping and one sticking out past the
		// run's end.
		{Name: layerClient, ID: 1, Start: 0, End: 100},
		{Name: layerServe, ID: 2, Parent: 1, Start: 10, End: 90},
		{Name: layerClusterRun, ID: 3, Parent: 2, Start: 20, End: 80},
		{Name: layerClusterShard, ID: 4, Parent: 3, Start: 25, End: 50},
		{Name: layerClusterShard, ID: 5, Parent: 3, Start: 40, End: 60},
		{Name: layerClusterShard, ID: 6, Parent: 3, Start: 70, End: 95},
		// A span without children is all self time.
		{Name: layerClient, ID: 7, Start: 200, End: 230},
	}
	want := map[uint64]int64{
		1: 20, // 100 - 80
		2: 20, // 80 - 60
		3: 15, // 60 - (union [25,60) = 35, plus [70,80) = 10)
		4: 25,
		5: 20,
		6: 25,
		7: 30,
	}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self %d, want %d", id, got[id], w)
		}
	}
	layers := selfByLayer(spans)
	if len(layers) != 4 || layers[0].Layer != layerClient || layers[0].TotalMS != 50/1e6 || layers[0].Spans != 2 {
		t.Errorf("selfByLayer = %+v", layers)
	}
}

func TestCovered(t *testing.T) {
	cases := []struct {
		lo, hi int64
		ivs    [][2]int64
		want   int64
	}{
		{0, 10, nil, 0},
		{0, 10, [][2]int64{{2, 4}, {3, 6}, {8, 20}}, 6},
		{0, 10, [][2]int64{{-5, 1}, {1, 2}}, 2},
		{0, 10, [][2]int64{{0, 10}, {2, 3}}, 10},
		{5, 10, [][2]int64{{0, 4}, {11, 12}}, 0},
	}
	for _, c := range cases {
		if got := covered(c.lo, c.hi, c.ivs); got != c.want {
			t.Errorf("covered(%d, %d, %v) = %d, want %d", c.lo, c.hi, c.ivs, got, c.want)
		}
	}
}

func TestSpanIDsLinkLayers(t *testing.T) {
	tr := newTracer()
	rid := tr.newRequest()
	now := tr.base
	tr.record(layerClient, rid, now, now)
	tr.record(layerServe, rid, now, now)
	tr.record(layerClusterRun, rid, now, now)
	s := tr.snapshot()
	if s[1].Parent != s[0].ID || s[2].Parent != s[1].ID || s[0].Parent != 0 {
		t.Errorf("parents do not chain client → serve → cluster.run: %+v", s)
	}
}

func TestTraceRoundTripAndSummary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.jsonl")
	recs := []traceRecord{
		{Type: "span", Span: &span{Name: layerClient, ID: 1, Start: 0, End: 2e6}},
		{Type: "span", Span: &span{Name: layerServe, ID: 2, Parent: 1, Start: 0, End: 1e6}},
		{Type: "probe", Probe: &probeRow{Layer: "core", Metric: "core.ns_per_item.twopass-triangle", Shape: "s", Value: 700, Unit: "ns"}},
		{Type: "e2e", Phase: "plain", Metrics: map[string]float64{"estimate_p50_ms": 10}},
		{Type: "e2e", Phase: "traced", Metrics: map[string]float64{"estimate_p50_ms": 11}},
	}
	if err := writeTrace(path, recs); err != nil {
		t.Fatal(err)
	}
	back, err := readTrace(path)
	if err != nil || len(back) != len(recs) {
		t.Fatalf("readTrace: %d records, %v", len(back), err)
	}
	var out bytes.Buffer
	summarize(&out, back)
	for _, want := range []string{"client", "core.ns_per_item.twopass-triangle", "estimate_p50_ms    plain", "+10.0%"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("summary lacks %q:\n%s", want, out.String())
		}
	}
}
