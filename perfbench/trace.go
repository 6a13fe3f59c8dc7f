package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"colorfulxml/internal/obs"
)

// spanLog keeps the traced run's span trees in memory, one tree per
// operation under its own identifier, and writes them out when the run
// ends. The benchmark builds its spans around its calls into the program
// (obs.NewSpan); Session.TraceQuery contributes the program's own phase
// spans beneath them.
type spanLog struct {
	mu    sync.Mutex
	next  uint64
	trees []opTrace
}

type opTrace struct {
	Op   uint64    `json:"op"`
	Span *obs.Span `json:"span"`
}

// maxSpanOps bounds the kept trees so a long traced run stays small; the
// operation identifiers keep counting past it.
const maxSpanOps = 50000

// add files a finished span tree as one operation under the next id.
func (l *spanLog) add(root *obs.Span) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	root.SetAttr("op", l.next)
	if len(l.trees) < maxSpanOps {
		l.trees = append(l.trees, opTrace{Op: l.next, Span: root})
	}
}

func (l *spanLog) ops() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// writeFile writes one JSON object per operation.
func (l *spanLog) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, t := range l.trees {
		if err := enc.Encode(t); err != nil {
			l.mu.Unlock()
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// spanMs is the duration of the first span named name under root, in
// milliseconds.
func spanMs(root *obs.Span, name string) (float64, bool) {
	s := root.Find(name)
	if s == nil {
		return 0, false
	}
	return float64(s.DurNanos()) / 1e6, true
}

// timed runs fn inside a child span of parent named name (no span when
// parent is nil, as on untraced runs).
func timed(parent *obs.Span, name string, fn func() error) error {
	if parent == nil {
		return fn()
	}
	s := parent.Child(name)
	err := fn()
	if err != nil {
		s.SetAttr("error", err.Error())
	}
	s.End()
	return err
}
