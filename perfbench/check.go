package main

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// The checkers below judge the program's answers against models the
// benchmark keeps itself: expected id sets computed from the generator's
// entity pool (tpcw-read), and the catalog the benchmark wrote (the two
// catalog workloads). None of them compares against stored program output.

// idSet is the set of ids a correct answer holds, each with a dense index.
type idSet map[string]int

func (s idSet) add(id string) {
	if _, ok := s[id]; !ok {
		s[id] = len(s)
	}
}

// stamps is reusable scratch for idSet.check, so checking allocates
// nothing per answer.
type stamps struct {
	marks []uint32
	gen   uint32
}

// check reports an answer whose ids, taken as a set, differ from s.
// Repeated ids are allowed: the check is on the set, not the multiplicity.
func (s idSet) check(got []string, seen *stamps) error {
	if len(seen.marks) < len(s) {
		seen.marks = make([]uint32, len(s))
		seen.gen = 0
	}
	seen.gen++
	distinct := 0
	for _, id := range got {
		i, ok := s[id]
		if !ok {
			return fmt.Errorf("unexpected id %q in an answer of %d items", id, len(got))
		}
		if seen.marks[i] != seen.gen {
			seen.marks[i] = seen.gen
			distinct++
		}
	}
	if distinct == len(s) {
		return nil
	}
	for id, i := range s {
		if seen.marks[i] != seen.gen {
			return fmt.Errorf("id %q missing: %d of %d expected ids returned", id, distinct, len(s))
		}
	}
	return nil
}

// itemName is the name the catalog gives item i.
func itemName(i int) string { return fmt.Sprintf("Item %d", i) }

// voteValue is the votes text of item i after the write with sequence
// number seq; seq 0 is the initial value.
func voteValue(i, seq int) string { return fmt.Sprintf("%d.%d", i, seq) }

// catalogModel is the benchmark's own record of a catalog: its initial
// items, which of them carry votes, every vote value the writer has sent,
// and how many new items the writer has sent and the program acknowledged.
type catalogModel struct {
	initial  int
	featured map[int]bool

	mu      sync.Mutex
	written map[int]map[int]bool // item -> vote sequence numbers sent
	sent    int                  // new items sent
	acked   int                  // new items acknowledged
}

// newCatalogModel models a catalog of n items where every third item is
// featured with votes, as buildCatalog makes it.
func newCatalogModel(n int) *catalogModel {
	m := &catalogModel{initial: n, featured: map[int]bool{}, written: map[int]map[int]bool{}}
	for i := 0; i < n; i += 3 {
		m.featured[i] = true
	}
	return m
}

// sendVote records a vote value before the writer sends it.
func (m *catalogModel) sendVote(item, seq int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.written[item] == nil {
		m.written[item] = map[int]bool{}
	}
	m.written[item][seq] = true
}

// sendInsert records a new item before the writer sends it, and returns
// its index among the new items.
func (m *catalogModel) sendInsert() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sent++
	return m.sent - 1
}

// ackInsert records a new item the program acknowledged.
func (m *catalogModel) ackInsert() {
	m.mu.Lock()
	m.acked++
	m.mu.Unlock()
}

// inserts returns how many new items were acknowledged and how many sent.
func (m *catalogModel) inserts() (acked, sent int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.acked, m.sent
}

// checkLookup judges a point lookup by name: exactly one item, that name.
func checkLookup(name string, values []string) error {
	if len(values) != 1 {
		return fmt.Errorf("lookup of %q returned %d items, want 1", name, len(values))
	}
	if values[0] != name {
		return fmt.Errorf("lookup of %q returned %q", name, values[0])
	}
	return nil
}

// checkVotes judges the votes navigation: one value per featured item, and
// each value one the writer sent for that item or its initial value.
func (m *catalogModel) checkVotes(values []string) error {
	if len(values) != len(m.featured) {
		return fmt.Errorf("votes navigation returned %d values, want %d", len(values), len(m.featured))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	seen := make(map[int]bool, len(values))
	for _, v := range values {
		item, seq, ok := parseVote(v)
		if !ok || !m.featured[item] {
			return fmt.Errorf("vote value %q names no featured item", v)
		}
		if seen[item] {
			return fmt.Errorf("item %d has two vote values", item)
		}
		seen[item] = true
		if seq != 0 && !m.written[item][seq] {
			return fmt.Errorf("vote value %q was never written", v)
		}
	}
	return nil
}

func parseVote(v string) (item, seq int, ok bool) {
	a, b, found := strings.Cut(v, ".")
	if !found {
		return 0, 0, false
	}
	item, err1 := strconv.Atoi(a)
	seq, err2 := strconv.Atoi(b)
	return item, seq, err1 == nil && err2 == nil
}

// checkScan judges a full scan's item count: at least the initial items
// plus the inserts acknowledged before the scan was sent, at most those
// plus the inserts sent before its answer came back. An insert counts as
// sent, not acknowledged, for the upper bound: the server commits it, and a
// concurrent scan may see it, before the writer reads the acknowledgement.
func (m *catalogModel) checkScan(count, ackedBefore, sentAfter int) error {
	lo, hi := m.initial+ackedBefore, m.initial+sentAfter
	if count < lo || count > hi {
		return fmt.Errorf("scan returned %d items, want between %d and %d", count, lo, hi)
	}
	return nil
}

// checkRecovered judges a reopened catalog: every acknowledged name is
// present exactly once and nothing else is.
func checkRecovered(acked []string, names []string) error {
	have := make(map[string]int, len(names))
	for _, n := range names {
		have[n]++
	}
	for _, n := range acked {
		switch have[n] {
		case 1:
		case 0:
			return fmt.Errorf("acknowledged item %q missing after reopen", n)
		default:
			return fmt.Errorf("acknowledged item %q present %d times after reopen", n, have[n])
		}
	}
	if len(names) != len(acked) {
		return fmt.Errorf("reopened catalog has %d items, %d acknowledged", len(names), len(acked))
	}
	return nil
}
