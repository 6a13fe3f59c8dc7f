package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"colorfulxml/colorful"
	"colorfulxml/internal/mcxquery"
	"colorfulxml/internal/obs"
	"colorfulxml/internal/plan"
	"colorfulxml/internal/storage"
)

// catalog-ingest sizes. The build's change log (about 3.3 entries per item)
// stays under colorful's 4096-entry incremental cap, and a round's WAL stays
// far under the 4 MiB auto-checkpoint size, so the first snapshot after the
// build and the replay at reopen both take the incremental ApplyChanges
// path.
const (
	ingestBuild     = 400 // items written before the first snapshot
	ingestGrow      = 400 // items then written one by one, each read back
	ingestMinRounds = 3   // at least 1200 read-backs per run
)

func runIngest(r *runState) error {
	var (
		setups, heaps, recoveries, disks  []float64
		writeLat, commits                 []float64
		reads                             []readSample
		refreshes, buildRefreshes         []float64
		openDurables, reconstructs        []float64
		records, changes, userBytesRatios []float64
		growTime                          time.Duration
	)
	ow, rw := startObs(), startRuntime()
	start := time.Now()
	for round := 0; round < ingestMinRounds || time.Since(start) < r.measure; round++ {
		dir := filepath.Join(r.dir, fmt.Sprintf("ingest-%d", round))

		// Set-up: open a fresh directory, build, publish the first snapshot.
		t0 := time.Now()
		db, err := colorful.Open(dir, "red", "green")
		if err != nil {
			return fmt.Errorf("open: %w", err)
		}
		root, featured, err := catalogRoots(db)
		if err != nil {
			return fmt.Errorf("roots: %w", err)
		}
		for i := 0; i < ingestBuild; i++ {
			if err := addItem(db, root, featured, i, nil); err != nil {
				return fmt.Errorf("build item %d: %w", i, err)
			}
		}
		t1 := time.Now()
		if err := db.Refresh(); err != nil {
			return fmt.Errorf("refresh: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		buildRefreshes = append(buildRefreshes, ms(time.Since(t1)))
		heaps = append(heaps, liveHeapMB())

		// Grow: each item written, then read back by a point lookup. Traced,
		// the write and the read-back are one operation each: a span with
		// one child per commit, and the TraceQuery span tree.
		acked := make([]string, 0, ingestBuild+ingestGrow)
		for i := 0; i < ingestBuild; i++ {
			acked = append(acked, itemName(i))
		}
		g0 := time.Now()
		for i := ingestBuild; i < ingestBuild+ingestGrow; i++ {
			name := itemName(i)
			r.attempted.Add(2)
			var ws *obs.Span
			var commit func(func() error) error
			if r.traced {
				ws = obs.NewSpan("write")
				ws.SetAttr("item", name)
				commit = func(f func() error) error {
					t := time.Now()
					err := timed(ws, "commit", f)
					commits = append(commits, ms(time.Since(t)))
					return err
				}
			}
			t := time.Now()
			err := addItem(db, root, featured, i, commit)
			writeLat = append(writeLat, ms(time.Since(t)))
			if ws != nil {
				ws.End()
				r.spans.add(ws)
			}
			if err != nil {
				r.opFailed("write "+name, err)
				r.failed.Add(1) // its read-back is not attempted
				continue
			}
			acked = append(acked, name)
			var items []colorful.Item
			var q *obs.Span
			t = time.Now()
			if r.traced {
				items, q, err = db.TraceQuery(context.Background(), lookupQuery(name))
			} else {
				items, err = db.Query(lookupQuery(name))
			}
			reads = append(reads, readSample{end: growTime + time.Since(g0), ms: ms(time.Since(t))})
			if q != nil {
				r.spans.add(q)
				if v, ok := spanMs(q, "snapshot"); ok {
					refreshes = append(refreshes, v)
				}
			}
			if err != nil {
				r.opFailed("read back "+name, err)
				continue
			}
			if err := checkLookup(name, itemValues(items)); err != nil {
				r.problem("read-back: %v", err)
			}
		}
		growTime += time.Since(g0)

		if r.traced && round == 0 {
			if err := ingestLayers(r, db); err != nil {
				return err
			}
		}
		if err := db.Close(); err != nil {
			return fmt.Errorf("close: %w", err)
		}

		if r.traced {
			// storage's own recovery, on a copy so the reopen below sees the
			// directory as Close left it.
			cp := dir + "-copy"
			if err := copyDir(dir, cp); err != nil {
				return err
			}
			t := time.Now()
			dur, st, stats, err := storage.OpenDurable(cp, storage.DurableOptions{})
			if err != nil {
				return fmt.Errorf("storage.OpenDurable: %w", err)
			}
			openDurables = append(openDurables, time.Since(t).Seconds())
			t = time.Now()
			if _, err := storage.Reconstruct(st); err != nil {
				dur.Close()
				return fmt.Errorf("storage.Reconstruct: %w", err)
			}
			reconstructs = append(reconstructs, time.Since(t).Seconds())
			records = append(records, float64(stats.RecordsReplayed))
			changes = append(changes, float64(stats.ChangesReplayed))
			if err := dur.Close(); err != nil {
				return err
			}
			if err := os.RemoveAll(cp); err != nil {
				return err
			}
		}

		// Reopen: everything acknowledged must be there, and valid.
		t := time.Now()
		db2, err := colorful.Open(dir, "red", "green")
		if err != nil {
			return fmt.Errorf("reopen: %w", err)
		}
		recoveries = append(recoveries, time.Since(t).Seconds())
		items, err := db2.Query(scanQuery)
		if err != nil {
			db2.Close()
			return fmt.Errorf("scan after reopen: %w", err)
		}
		if err := checkRecovered(acked, itemValues(items)); err != nil {
			r.problem("reopen: %v", err)
		}
		if err := db2.Validate(); err != nil {
			r.problem("validate after reopen: %v", err)
		}
		if r.traced && round == 0 {
			xml, err := db2.XMLString(false)
			if err != nil {
				db2.Close()
				return err
			}
			size, err := dirBytes(dir)
			if err != nil {
				db2.Close()
				return err
			}
			userBytesRatios = append(userBytesRatios, float64(size)/float64(len(xml)))
		}
		if err := db2.Close(); err != nil {
			return fmt.Errorf("close after reopen: %w", err)
		}
		size, err := dirBytes(dir)
		if err != nil {
			return err
		}
		disks = append(disks, float64(size)/1e6)
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	rw.stop()
	ow.stop()

	r.e2e["setup_s"] = median(setups)
	r.e2e["heap_mb"] = median(heaps)
	r.setReadMetrics(reads)
	if !r.traced {
		return nil
	}
	r.setObsLayers(ow)
	r.setRuntimeLayers(rw, len(reads))
	r.setLayerMedian("colorful.write_p50_ms", writeLat)
	r.setLayerMedian("colorful.commit_ms", commits)
	r.setLayerMedian("colorful.refresh_ms", refreshes)
	r.setLayerMedian("colorful.build_refresh_ms", buildRefreshes)
	r.setLayerMedian("colorful.recovery_s", recoveries)
	r.setLayerMedian("storage.disk_mb", disks)
	r.setLayerMedian("storage.open_durable_s", openDurables)
	r.setLayerMedian("storage.reconstruct_s", reconstructs)
	r.setLayerMedian("storage.records_replayed", records)
	r.setLayerMedian("storage.changes_replayed", changes)
	r.setLayerMedian("storage.bytes_per_user_byte", userBytesRatios)
	return nil
}

// ingestLayers makes the traced run's direct calls on the grown catalog:
// storage.Load, plan.CompileQuery and the reference evaluator on the
// read-back query.
func ingestLayers(r *runState, db *colorful.DB) error {
	const reps = 20
	var loads, compiles, parses, evals []float64
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
	opt := plan.Options{Catalog: plan.StoreCatalog{Store: st}}
	ev := mcxquery.NewEvaluator(db.Database)
	for i := 0; i < reps; i++ {
		q := lookupQuery(itemName(i * 7))
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
		t = time.Now()
		if _, err := ev.Query(q); err != nil {
			return fmt.Errorf("evaluator: %w", err)
		}
		evals = append(evals, ms(time.Since(t)))
	}
	r.setLayerMedian("storage.load_ms", loads)
	r.setLayerMedian("pathexpr.parse_us", parses)
	r.setLayerMedian("plan.compile_ms", compiles)
	r.setLayerMedian("mcxquery.eval_ms", evals)
	return nil
}
