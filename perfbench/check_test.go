package main

import (
	"encoding/json"
	"os"
	"testing"

	"colorfulxml/colorful"
	"colorfulxml/internal/datagen"
	"colorfulxml/internal/mcxquery"
	"colorfulxml/internal/pathexpr"
	"colorfulxml/internal/serialize"
)

func TestIDSetRejectsDroppedID(t *testing.T) {
	want := idSet{}
	for _, id := range []string{"O1", "O2", "O3"} {
		want.add(id)
	}
	seen := &stamps{}
	if err := want.check([]string{"O3", "O1", "O2", "O1"}, seen); err != nil {
		t.Fatalf("full answer with a repeated id rejected: %v", err)
	}
	if err := want.check([]string{"O1", "O3"}, seen); err == nil {
		t.Fatal("answer missing O2 accepted")
	}
	if err := want.check([]string{"O1", "O2", "O3", "O4"}, seen); err == nil {
		t.Fatal("answer with an extra id accepted")
	}
	if err := want.check(nil, seen); err == nil {
		t.Fatal("empty answer accepted")
	}
}

func TestVotesRejectValueNeverWritten(t *testing.T) {
	m := newCatalogModel(9) // items 0, 3 and 6 carry votes
	m.sendVote(3, 5)
	if err := m.checkVotes([]string{"0.0", "3.5", "6.0"}); err != nil {
		t.Fatalf("written and initial values rejected: %v", err)
	}
	if err := m.checkVotes([]string{"0.0", "3.0", "6.0"}); err != nil {
		t.Fatalf("initial values rejected: %v", err)
	}
	for _, bad := range [][]string{
		{"0.0", "3.6", "6.0"}, // never written
		{"0.0", "6.5", "6.0"}, // written, but for another item
		{"0.0", "1.0", "6.0"}, // not a featured item
		{"0.0", "3.5"},        // a featured item missing
		{"0.0", "3.5", "3.5"}, // an item twice
		{"0.0", "x", "6.0"},   // not a vote value
	} {
		if err := m.checkVotes(bad); err == nil {
			t.Errorf("votes %q accepted", bad)
		}
	}
}

func TestScanCountBounds(t *testing.T) {
	m := newCatalogModel(100)
	if err := m.checkScan(102, 1, 3); err != nil {
		t.Fatalf("count inside the acknowledged range rejected: %v", err)
	}
	if err := m.checkScan(100, 1, 3); err == nil {
		t.Fatal("count below the inserts acknowledged before the read accepted")
	}
	if err := m.checkScan(104, 1, 3); err == nil {
		t.Fatal("count above the inserts sent before the read returned accepted")
	}
}

func TestLookupWantsExactlyOne(t *testing.T) {
	if err := checkLookup("Item 7", []string{"Item 7"}); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]string{nil, {"Item 7", "Item 7"}, {"Item 8"}} {
		if err := checkLookup("Item 7", bad); err == nil {
			t.Errorf("lookup answer %q accepted", bad)
		}
	}
}

func TestRecoveredRejectsMissingItem(t *testing.T) {
	acked := []string{itemName(0), itemName(1), itemName(2)}
	if err := checkRecovered(acked, []string{itemName(2), itemName(0), itemName(1)}); err != nil {
		t.Fatalf("complete catalog rejected: %v", err)
	}
	if err := checkRecovered(acked, []string{itemName(0), itemName(2)}); err == nil {
		t.Fatal("catalog missing an acknowledged item accepted")
	}
	if err := checkRecovered(acked, []string{itemName(0), itemName(1), itemName(2), itemName(3)}); err == nil {
		t.Fatal("catalog with an unacknowledged item accepted")
	}
}

// TestExpectedSetsMatchReferenceEvaluator checks the pool-derived expected
// sets against the reference evaluator on a deserialized copy, at a small
// scale, so a wrong expectation cannot pass as a program fault.
func TestExpectedSetsMatchReferenceEvaluator(t *testing.T) {
	e := datagen.GenTPCWEntities(datagen.TPCWConfig{Scale: 1, Seed: 7})
	cdb, err := datagen.BuildTPCWMCT(e)
	if err != nil {
		t.Fatal(err)
	}
	xml, err := serialize.SerializeString(cdb, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	db, err := colorful.UnmarshalXML(xml)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := tpcwQueries(e)
	if err != nil {
		t.Fatal(err)
	}
	ev := mcxquery.NewEvaluator(db.Database)
	seen := &stamps{}
	for _, q := range qs {
		seq, err := ev.Query(q.text)
		if err != nil {
			t.Fatalf("%s: %v", q.id, err)
		}
		items := make([]colorful.Item, len(seq))
		for i, it := range seq {
			items[i] = colorful.Item{Node: it.Node, Color: it.Color, Value: pathexpr.ItemString(it)}
		}
		if err := q.want.check(itemIDs(items), seen); err != nil {
			t.Errorf("%s: %v", q.id, err)
		}
	}
}

func TestReadOnlyForm(t *testing.T) {
	got, err := readOnlyForm(`for $x in document("tpcw")/{customer}descendant::customer
return createColor(black, <r>{ $x/{customer}attribute::id }</r>)`)
	if err != nil {
		t.Fatal(err)
	}
	want := `for $x in document("tpcw")/{customer}descendant::customer
return $x/{customer}attribute::id`
	if got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
	if _, err := readOnlyForm(`document("db")/{red}child::a`); err == nil {
		t.Fatal("a query without a result constructor was accepted")
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
}

// TestMetricListsMatchBenchmarkJSON keeps BENCHMARK.json and the metrics the
// command prints in step.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var b struct {
		Workloads []def `json:"workloads"`
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d, the command %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s/%s, the command %s/%s", kind, i,
					got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, e2eMetrics)
	same("per_layer", b.PerLayer, layerMetrics)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %s, the command %s", i, b.Workloads[i].Name, w.name)
		}
	}
}
