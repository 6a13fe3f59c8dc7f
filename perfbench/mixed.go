package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"sync"
	"time"

	"colorfulxml/client"
	"colorfulxml/colorful"
	"colorfulxml/internal/mcxquery"
	"colorfulxml/internal/obs"
	"colorfulxml/internal/plan"
	"colorfulxml/internal/server"
	"colorfulxml/internal/storage"
)

// catalog-mixed sizes and shares. A round is mixedReads reads on the reader
// connection and mixedWrites writes on the writer connection, run
// concurrently; both wait for the other at the end of the round.
const (
	mixedItems = 2000
	// Of each round's 40 reads, 32 are point lookups, 4 the votes
	// navigation and 4 the full scan.
	mixedReads = 40
	// Of each round's 20 writes, 19 replace one item's votes and 1 inserts a
	// new item subtree. One insert per 40 reads keeps the reads that wait
	// out its checkpoint a few percent of all reads, so the 99th percentile
	// falls inside that stall rather than at the edge of its tail.
	mixedWrites = 20
	// mixedReplay is how many of the reader's reads the traced run replays
	// over the wire and in process to quote the wire's own cost.
	mixedReplay = 200
)

// readKind is a read's place in the round: in every ten reads, the fourth
// navigates the votes and the ninth scans.
func readKind(i int) string {
	switch i % 10 {
	case 3:
		return "votes"
	case 8:
		return "scan"
	}
	return "lookup"
}

// buildCatalog writes the initial catalog into dir through the colorful
// mutators and checkpoints it. This is input generation: the per-commit
// fsync is off here and on in the measured database.
func buildCatalog(dir string, n int) error {
	db, err := colorful.OpenOptions(dir, colorful.Options{NoSync: true}, "red", "green")
	if err != nil {
		return err
	}
	root, featured, err := catalogRoots(db)
	if err == nil {
		for i := 0; i < n && err == nil; i++ {
			err = addItem(db, root, featured, i, nil)
		}
	}
	if err == nil {
		err = db.Checkpoint()
	}
	if cerr := db.Close(); err == nil {
		err = cerr
	}
	return err
}

// served is a durable catalog behind a loopback server and a client pool.
type served struct {
	db     *colorful.DB
	srv    *server.Server
	done   chan error
	client *client.DB
}

func serve(dir string) (*served, error) {
	db, err := colorful.Open(dir, "red", "green")
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		db.Close()
		return nil, err
	}
	s := &served{db: db, srv: server.New(db, server.Options{Name: "perfbench"}), done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	s.client, err = client.OpenOptions(ln.Addr().String(), client.Options{PoolSize: 2, ClientName: "perfbench"})
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// close stops the client, drains the server, waits for it and closes the
// database.
func (s *served) close() error {
	if s.client != nil {
		s.client.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; err == nil && serr != nil {
		err = serr
	}
	if derr := s.db.Close(); err == nil {
		err = derr
	}
	return err
}

func runMixed(r *runState) error {
	pristine := filepath.Join(r.dir, "pristine")
	if err := buildCatalog(pristine, mixedItems); err != nil {
		return fmt.Errorf("building catalog: %w", err)
	}
	model := newCatalogModel(mixedItems)

	var s *served
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return err
			}
		}
		live := filepath.Join(r.dir, fmt.Sprintf("live-%d", i))
		if err := copyDir(pristine, live); err != nil {
			return err
		}
		liveHeapMB()
		t := time.Now()
		var err error
		if s, err = serve(live); err != nil {
			return fmt.Errorf("serving: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	live := filepath.Join(r.dir, fmt.Sprintf("live-%d", setupRepeats-1))
	r.setSetup(setups)

	// One untimed read of each kind warms the connections.
	for _, q := range []string{lookupQuery(itemName(0)), votesQuery, scanQuery} {
		if _, err := s.client.Query(q); err != nil {
			s.close()
			return fmt.Errorf("warm-up: %w", err)
		}
	}

	ow, rw := startObs(), startRuntime()
	ph := newMixedPhase(r, model, s.client)
	ph.run()
	rw.stop()
	ow.stop()
	r.setReadMetrics(ph.reads)

	if r.traced {
		r.setObsLayers(ow)
		r.setRuntimeLayers(rw, len(ph.reads))
		r.setLayerMedian("colorful.write_p50_ms", ph.writeLat)
		if n := ow.counter("server_requests_total"); n > 0 {
			r.setLayer("wire.bytes_per_read", ow.counter("wire_bytes_written_total")/n, int(n))
		}
		if err := mixedLayers(r, s, live, ph.replay); err != nil {
			s.close()
			return err
		}
	}
	if err := s.close(); err != nil {
		return fmt.Errorf("closing: %w", err)
	}
	if r.traced {
		size, err := dirBytes(live)
		if err != nil {
			return err
		}
		r.setLayer("storage.disk_mb", float64(size)/1e6, 1)
	}
	return nil
}

// mixedPhase is the measured phase of catalog-mixed.
type mixedPhase struct {
	r      *runState
	model  *catalogModel
	cl     *client.DB
	reader *rand.Rand
	writer *rand.Rand

	reads    []readSample
	writeLat []float64
	start    time.Time
	replay   []string // the first reads, replayed by the traced run
	voteSeq  int
}

func newMixedPhase(r *runState, model *catalogModel, cl *client.DB) *mixedPhase {
	return &mixedPhase{
		r: r, model: model, cl: cl,
		reader: rand.New(rand.NewSource(r.seed*2 + 1)),
		writer: rand.New(rand.NewSource(r.seed*2 + 2)),
	}
}

// run executes whole rounds until the measured time has passed.
func (p *mixedPhase) run() {
	featured := make([]int, 0, len(p.model.featured))
	for i := 0; i < p.model.initial; i += 3 {
		featured = append(featured, i)
	}
	p.start = time.Now()
	for time.Since(p.start) < p.r.measure {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < mixedWrites; i++ {
				p.write(i, featured)
			}
		}()
		for i := 0; i < mixedReads; i++ {
			p.read(i)
		}
		wg.Wait()
	}
}

func (p *mixedPhase) read(i int) {
	r := p.r
	kind := readKind(i)
	var text, name string
	switch kind {
	case "lookup":
		name = itemName(p.reader.Intn(p.model.initial))
		text = lookupQuery(name)
	case "votes":
		text = votesQuery
	case "scan":
		text = scanQuery
	}
	if len(p.replay) < mixedReplay {
		p.replay = append(p.replay, text)
	}
	var span *obs.Span
	if r.traced {
		span = obs.NewSpan("read")
		span.SetAttr("kind", kind)
	}
	before, _ := p.model.inserts()
	r.attempted.Add(1)
	var items []client.Item
	t := time.Now()
	err := timed(span, "client.query", func() (err error) {
		items, err = p.cl.Query(text)
		return err
	})
	p.reads = append(p.reads, readSample{end: time.Since(p.start), ms: ms(time.Since(t))})
	_, after := p.model.inserts()
	if span != nil {
		span.End()
		r.spans.add(span)
	}
	if err != nil {
		r.opFailed(kind, err)
		return
	}
	values := make([]string, len(items))
	for j, it := range items {
		values[j] = it.Value
	}
	switch kind {
	case "lookup":
		err = checkLookup(name, values)
	case "votes":
		err = p.model.checkVotes(values)
	case "scan":
		err = p.model.checkScan(len(values), before, after)
	}
	if err != nil {
		r.problem("%s: %v", kind, err)
	}
}

// write runs one write on the writer connection. Its latencies are kept
// apart from the reader's, so only this goroutine touches them.
func (p *mixedPhase) write(i int, featured []int) {
	r := p.r
	var text, kind string
	if i == mixedWrites-1 {
		kind = "insert"
		text = fmt.Sprintf(`for $c in document("db")/{red}child::catalog update $c { insert <item><name>%s</name></item> }`,
			itemName(p.model.initial+p.model.sendInsert()))
	} else {
		kind = "vote"
		item := featured[p.writer.Intn(len(featured))]
		p.voteSeq++
		p.model.sendVote(item, p.voteSeq)
		text = fmt.Sprintf(`for $i in document("db")/{green}descendant::item[{red}child::name = "%s"], $v in $i/{green}child::votes update $i { replace $v with "%s" }`,
			itemName(item), voteValue(item, p.voteSeq))
	}
	var span *obs.Span
	if r.traced {
		span = obs.NewSpan("write")
		span.SetAttr("kind", kind)
	}
	r.attempted.Add(1)
	var res client.UpdateResult
	t := time.Now()
	err := timed(span, "client.update", func() (err error) {
		res, err = p.cl.Update(text)
		return err
	})
	p.writeLat = append(p.writeLat, ms(time.Since(t)))
	if span != nil {
		span.End()
		r.spans.add(span)
	}
	if err != nil {
		r.opFailed(kind, err)
		return
	}
	if res.Tuples != 1 {
		r.problem("%s bound %d targets, want 1", kind, res.Tuples)
	}
	if kind == "insert" {
		p.model.ackInsert()
	}
}

// mixedLayers makes the traced run's direct calls once the writer has
// stopped: the wire's own cost (the same reads over the wire and in
// process, alternating which goes first), parse and compile of the lookups,
// storage.Load and the reference evaluator.
func mixedLayers(r *runState, s *served, live string, replay []string) error {
	sess := s.db.Session()
	defer sess.Close()
	var wireMs, localMs []float64
	for i, q := range replay {
		overWire := func() error {
			t := time.Now()
			_, err := s.client.Query(q)
			wireMs = append(wireMs, ms(time.Since(t)))
			return err
		}
		local := func() error {
			t := time.Now()
			_, err := sess.Query(q)
			localMs = append(localMs, ms(time.Since(t)))
			return err
		}
		first, second := overWire, local
		if i%2 == 1 {
			first, second = local, overWire
		}
		if err := errors.Join(first(), second()); err != nil {
			return fmt.Errorf("replay: %w", err)
		}
	}
	if len(wireMs) > 0 {
		r.setLayer("wire.overhead_ms", median(wireMs)-median(localMs), len(wireMs))
	}

	var loads []float64
	var st *storage.Store
	for i := 0; i < 5; i++ {
		t := time.Now()
		x, err := storage.Load(s.db.Database, 0)
		if err != nil {
			return fmt.Errorf("storage.Load: %w", err)
		}
		loads = append(loads, ms(time.Since(t)))
		st = x
	}
	r.setLayerMedian("storage.load_ms", loads)

	opt := plan.Options{Catalog: plan.StoreCatalog{Store: st}}
	ev := mcxquery.NewEvaluator(s.db.Database)
	var parses, compiles, evals []float64
	for i, q := range replay {
		t := time.Now()
		if _, err := mcxquery.ParseQuery(q); err != nil {
			return err
		}
		parses = append(parses, float64(time.Since(t).Nanoseconds())/1e3)
		t = time.Now()
		if _, err := plan.CompileQuery(q, opt); err != nil {
			return fmt.Errorf("compile: %w", err)
		}
		compiles = append(compiles, ms(time.Since(t)))
		if i < 40 {
			t = time.Now()
			if _, err := ev.Query(q); err != nil {
				return fmt.Errorf("evaluator: %w", err)
			}
			evals = append(evals, ms(time.Since(t)))
		}
	}
	r.setLayerMedian("pathexpr.parse_us", parses)
	r.setLayerMedian("plan.compile_ms", compiles)
	r.setLayerMedian("mcxquery.eval_ms", evals)

	xml, err := s.db.XMLString(false)
	if err != nil {
		return err
	}
	size, err := dirBytes(live)
	if err != nil {
		return err
	}
	r.setLayer("storage.bytes_per_user_byte", float64(size)/float64(len(xml)), 1)
	return nil
}
