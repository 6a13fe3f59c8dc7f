package main

import (
	"context"
	"fmt"
	"regexp"
	"strings"
	"sync"
	"time"

	"colorfulxml/colorful"
	"colorfulxml/internal/core"
	"colorfulxml/internal/datagen"
	"colorfulxml/internal/engine"
	"colorfulxml/internal/mcxquery"
	"colorfulxml/internal/obs"
	"colorfulxml/internal/pathexpr"
	"colorfulxml/internal/plan"
	"colorfulxml/internal/serialize"
	"colorfulxml/internal/storage"
	"colorfulxml/internal/workload"
)

// tpcwScale is the datagen scale of tpcw-read: about 38 thousand nodes.
const tpcwScale = 2

// tpcwSessions is the number of concurrent sessions, one per CPU of the
// 2-CPU host the benchmark was sized on.
const tpcwSessions = 2

// tpcwQuery is one Table 2 TPC-W MCT query in read-only form with the set
// of ids a correct answer holds.
type tpcwQuery struct {
	id   string
	text string
	want idSet
}

// readOnlyForm strips the result constructor of a Table 2 query:
// createColor(black, <r>{ X }</r>) becomes X. In constructor form every
// query writes to the database.
var ctorForm = regexp.MustCompile(`(?s)createColor\(black, <r>\{ (.*) \}</r>\)`)

func readOnlyForm(text string) (string, error) {
	out := ctorForm.ReplaceAllString(text, "$1")
	if out == text {
		return "", fmt.Errorf("query has no createColor(black, <r>{ ... }</r>) result: %q", text)
	}
	return out, nil
}

// tpcwQueries returns the sixteen queries with their expected id sets,
// computed from the generator's entity pool.
func tpcwQueries(e *datagen.TPCWEntities) ([]tpcwQuery, error) {
	want := tpcwExpected(e)
	var out []tpcwQuery
	for _, q := range workload.TPCWQueries() {
		text, err := readOnlyForm(workload.FaithfulText(q, workload.MCT, workload.Params{E: e}))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.ID, err)
		}
		w, ok := want[q.ID]
		if !ok {
			return nil, fmt.Errorf("%s: no expected answer", q.ID)
		}
		out = append(out, tpcwQuery{id: q.ID, text: text, want: w})
	}
	if len(out) != 16 {
		return nil, fmt.Errorf("expected 16 TPC-W queries, got %d", len(out))
	}
	return out, nil
}

// tpcwExpected computes each query's answer as a set of ids straight from
// the entity pool, without the program: the ids are the "id" attributes the
// MCT builder gives each entity (C customer, O order, L order line, I item,
// U author). The constants the query texts carry are derived from the pool
// the same way the published texts are made faithful to the hand plans.
func tpcwExpected(e *datagen.TPCWEntities) map[string]idSet {
	country := func(addr int) string { return e.Countries[e.Addresses[addr-1].Country-1].Name }
	order := func(id int) datagen.Order { return e.Orders[id-1] }
	ids := func(prefix string, n int, keep func(i int) bool) idSet {
		s := idSet{}
		for i := 0; i < n; i++ {
			if keep(i) {
				s.add(fmt.Sprintf("%s%d", prefix, i+1))
			}
		}
		return s
	}
	customers := func(keep func(c datagen.Customer) bool) idSet {
		return ids("C", len(e.Customers), func(i int) bool { return keep(e.Customers[i]) })
	}
	orders := func(keep func(o datagen.Order) bool) idSet {
		return ids("O", len(e.Orders), func(i int) bool { return keep(e.Orders[i]) })
	}
	lines := func(keep func(l datagen.OrderLine) bool) idSet {
		return ids("L", len(e.OrderLines), func(i int) bool { return keep(e.OrderLines[i]) })
	}

	o0 := e.Orders[0]
	tq3Uname := e.Customers[o0.Customer-1].Uname
	tq3Country := country(o0.Shipping)
	author0, author1 := e.Authors[0].Name, e.Authors[1].Name

	norwayMin, norway := 0, false
	for _, o := range e.Orders {
		if country(o.Shipping) == "Norway" && (!norway || o.Total < norwayMin) {
			norwayMin, norway = o.Total, true
		}
	}
	japanItems := idSet{}
	for _, l := range e.OrderLines {
		if country(order(l.Order).Billing) == "Japan" {
			japanItems.add(fmt.Sprintf("I%d", l.Item))
		}
	}

	return map[string]idSet{
		"TQ1": customers(func(c datagen.Customer) bool { return c.Uname == "user000042" }),
		"TQ2": orders(func(o datagen.Order) bool { return o.Status == "SHIPPED" }),
		"TQ3": orders(func(o datagen.Order) bool {
			return e.Customers[o.Customer-1].Uname == tq3Uname && country(o.Shipping) == tq3Country
		}),
		"TQ4": lines(func(l datagen.OrderLine) bool { return l.Qty >= 8 }),
		"TQ5": customers(func(c datagen.Customer) bool { return strings.Contains(c.Email, "user00004") }),
		"TQ6": lines(func(l datagen.OrderLine) bool { return l.Qty >= 2 }),
		"TQ7": ids("I", len(e.Items), func(i int) bool { return e.Items[i].Cost > 9000 }),
		"TQ8": customers(func(c datagen.Customer) bool { return strings.Contains(c.Email, "user000042@") }),
		"TQ9": lines(func(l datagen.OrderLine) bool {
			return order(l.Order).Status == "SHIPPED" && l.Discount == 3
		}),
		"TQ10": lines(func(l datagen.OrderLine) bool {
			o := order(l.Order)
			d := e.Dates[o.Date-1]
			return e.Customers[o.Customer-1].Discount == 7 && d.Year == 2003 && d.Month == 5
		}),
		"TQ11": lines(func(l datagen.OrderLine) bool {
			return order(l.Order).Status == "DENIED" && l.Discount == 9
		}),
		"TQ12": ids("U", len(e.Authors), func(i int) bool { return e.Authors[i].Name == author0 }),
		"TQ13": lines(func(l datagen.OrderLine) bool { return e.Items[l.Item-1].Subject == "HISTORY" }),
		"TQ14": lines(func(l datagen.OrderLine) bool {
			return e.Authors[e.Items[l.Item-1].Author-1].Name == author1
		}),
		"TQ15": orders(func(o datagen.Order) bool { return norway && o.Total > norwayMin }),
		"TQ16": japanItems,
	}
}

// tpcwID names the entity a result item stands for: an id attribute is its
// own value; an element with an id is that entity; a field element (TQ7's
// title, TQ12's bio) stands for its parent entity in the item's color.
func tpcwID(it colorful.Item) string {
	n := it.Node
	if n == nil {
		return it.Value
	}
	if n.Kind() == core.KindAttribute {
		return n.Value()
	}
	if v := n.AttributeValue("id"); v != "" {
		return v
	}
	if p := core.Parent(n, it.Color); p != nil {
		return p.AttributeValue("id")
	}
	return ""
}

func itemIDs(items []colorful.Item) []string {
	out := make([]string, len(items))
	for i, it := range items {
		out[i] = tpcwID(it)
	}
	return out
}

// tpcwInput is everything tpcw-read generates before set-up is timed.
type tpcwInput struct {
	xml     string
	queries []tpcwQuery
}

func genTPCW(seed int64) (*tpcwInput, error) {
	e := datagen.GenTPCWEntities(datagen.TPCWConfig{Scale: tpcwScale, Seed: seed})
	db, err := datagen.BuildTPCWMCT(e)
	if err != nil {
		return nil, err
	}
	xml, err := serialize.SerializeString(db, nil, false)
	if err != nil {
		return nil, err
	}
	qs, err := tpcwQueries(e)
	if err != nil {
		return nil, err
	}
	return &tpcwInput{xml: xml, queries: qs}, nil
}

func runTPCW(r *runState) error {
	in, err := genTPCW(r.seed)
	if err != nil {
		return fmt.Errorf("generating input: %w", err)
	}

	// Set-up: exchange XML to a served store, timed several times.
	var db *colorful.DB
	var setups, unmarshals, refreshes []float64
	for i := 0; i < setupRepeats; i++ {
		db = nil
		liveHeapMB() // start each set-up from a collected heap
		t0 := time.Now()
		d, err := colorful.UnmarshalXML(in.xml)
		if err != nil {
			return fmt.Errorf("unmarshal: %w", err)
		}
		t1 := time.Now()
		if err := d.Refresh(); err != nil {
			return fmt.Errorf("refresh: %w", err)
		}
		t2 := time.Now()
		setups = append(setups, t2.Sub(t0).Seconds())
		unmarshals = append(unmarshals, t1.Sub(t0).Seconds())
		refreshes = append(refreshes, ms(t2.Sub(t1)))
		db = d
	}
	r.setSetup(setups)
	r.setLayerMedian("serialize.unmarshal_s", unmarshals)
	r.setLayerMedian("colorful.refresh_ms", refreshes)

	// One untimed round per session fills the plan cache.
	tpcwPhase(r, db, in.queries, 0, false)
	ow, rw := startObs(), startRuntime()
	tpcwPhase(r, db, in.queries, r.measure, true)
	rw.stop()
	ow.stop()
	reads := int(r.attempted.Load())
	if r.traced {
		r.setObsLayers(ow)
		r.setRuntimeLayers(rw, reads)
		return tpcwLayers(r, db, in)
	}
	return nil
}

// tpcwPhase runs whole rounds of the sixteen queries from each session until
// measure has passed (one round each when measure is 0). Counted phases add
// to attempted and to the read latencies.
func tpcwPhase(r *runState, db *colorful.DB, qs []tpcwQuery, measure time.Duration, counted bool) {
	var wg sync.WaitGroup
	lats := make([][]readSample, tpcwSessions)
	mapMs := make([][]float64, tpcwSessions)
	start := time.Now()
	for s := 0; s < tpcwSessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sess := db.Session()
			defer sess.Close()
			seen := &stamps{}
			for {
				for i := range qs {
					q := &qs[(s*len(qs)/tpcwSessions+i)%len(qs)]
					var items []colorful.Item
					var err error
					var root *obs.Span
					t := time.Now()
					if r.traced && counted {
						items, root, err = sess.TraceQuery(context.Background(), q.text)
					} else {
						items, err = sess.Query(q.text)
					}
					d := time.Since(t)
					if counted {
						r.attempted.Add(1)
						lats[s] = append(lats[s], readSample{end: time.Since(start), ms: ms(d)})
					}
					if root != nil {
						root.SetAttr("query_id", q.id)
						r.spans.add(root)
						if v, ok := spanMs(root, "map-results"); ok {
							mapMs[s] = append(mapMs[s], v)
						}
					}
					if err != nil {
						if counted {
							r.opFailed(q.id, err)
						}
						continue
					}
					if err := q.want.check(itemIDs(items), seen); err != nil {
						r.problem("%s: %v", q.id, err)
					}
				}
				if time.Since(start) >= measure {
					return
				}
			}
		}(s)
	}
	wg.Wait()
	if counted {
		var all []readSample
		var maps []float64
		for s := range lats {
			all = append(all, lats[s]...)
			maps = append(maps, mapMs[s]...)
		}
		r.setReadMetrics(all)
		r.setLayerMedian("colorful.map_ms", maps)
	}
}

// tpcwLayers makes the traced run's direct calls into the layers below the
// session: storage.Load, plan.CompileQuery, engine.ExecBatchesPooled (with
// the plan's own memory pool, as the session executes it) and the mcxquery
// reference evaluator on a separately deserialized copy.
func tpcwLayers(r *runState, db *colorful.DB, in *tpcwInput) error {
	const reps = 15
	var loads []float64
	var st *storage.Store
	for i := 0; i < 5; i++ {
		t := time.Now()
		s, err := storage.Load(db.Database, 0)
		if err != nil {
			return fmt.Errorf("storage.Load: %w", err)
		}
		loads = append(loads, ms(time.Since(t)))
		st = s
	}
	r.setLayerMedian("storage.load_ms", loads)

	var parses, compiles []float64
	var rows, batches, execs int
	opt := plan.Options{Catalog: plan.StoreCatalog{Store: st}}
	for _, q := range in.queries {
		var c *plan.Compiled
		for i := 0; i < reps; i++ {
			t := time.Now()
			if _, err := mcxquery.ParseQuery(q.text); err != nil {
				return fmt.Errorf("%s: parse: %w", q.id, err)
			}
			parses = append(parses, float64(time.Since(t).Nanoseconds())/1e3)
			t = time.Now()
			cc, err := plan.CompileQuery(q.text, opt)
			if err != nil {
				return fmt.Errorf("%s: compile: %w", q.id, err)
			}
			compiles = append(compiles, ms(time.Since(t)))
			c = cc
		}
		var execMs []float64
		for i := 0; i < reps; i++ {
			t := time.Now()
			_, err := engine.ExecBatchesPooled(context.Background(), st, c.Mem, c.Root.Clone(), func(b *engine.Batch) error {
				rows += b.Len()
				batches++
				return nil
			})
			if err != nil {
				return fmt.Errorf("%s: exec: %w", q.id, err)
			}
			execMs = append(execMs, ms(time.Since(t)))
			execs++
		}
		r.setLayerMedian("engine.exec_ms."+q.id, execMs)
	}
	r.setLayerMedian("pathexpr.parse_us", parses)
	r.setLayerMedian("plan.compile_ms", compiles)
	r.setLayer("engine.rows_per_result", float64(rows)/float64(execs), execs)
	if batches > 0 {
		r.setLayer("engine.batch_fill", float64(rows)/float64(batches*engine.BatchSize), batches)
	}

	// The reference evaluator runs on its own copy, so its answers are
	// checked apart from the served store's.
	ref, err := colorful.UnmarshalXML(in.xml)
	if err != nil {
		return fmt.Errorf("unmarshal reference copy: %w", err)
	}
	ev := mcxquery.NewEvaluator(ref.Database)
	var evals []float64
	seen := &stamps{}
	for _, q := range in.queries {
		t := time.Now()
		seq, err := ev.Query(q.text)
		if err != nil {
			return fmt.Errorf("%s: evaluator: %w", q.id, err)
		}
		evals = append(evals, ms(time.Since(t)))
		items := make([]colorful.Item, len(seq))
		for i, it := range seq {
			items[i] = colorful.Item{Node: it.Node, Color: it.Color, Value: pathexpr.ItemString(it)}
		}
		if err := q.want.check(itemIDs(items), seen); err != nil {
			r.problem("%s on the reference evaluator: %v", q.id, err)
		}
	}
	r.setLayerMedian("mcxquery.eval_ms", evals)
	return nil
}
