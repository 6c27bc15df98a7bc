package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// index is the name table shared by Counters and Gauges: a copy-on-write
// map behind an atomic pointer. Resolving a registered name is one load
// and one map read; registering a new one clones the map under mu. Names
// are never removed, so a handle stays valid for the registry's life.
type index[T any] struct {
	m  atomic.Pointer[map[string]*T]
	mu sync.Mutex // serialises registration only
}

// lookup returns name's handle, or nil when it was never registered.
func (ix *index[T]) lookup(name string) *T {
	if m := ix.m.Load(); m != nil {
		return (*m)[name]
	}
	return nil
}

// get returns name's handle, registering a fresh one on first use.
// Concurrent first uses of one name agree on a single handle.
func (ix *index[T]) get(name string, fresh func() *T) *T {
	if h := ix.lookup(name); h != nil {
		return h
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if h := ix.lookup(name); h != nil {
		return h
	}
	next := make(map[string]*T)
	if m := ix.m.Load(); m != nil {
		for k, v := range *m {
			next[k] = v
		}
	}
	h := fresh()
	next[name] = h
	ix.m.Store(&next)
	return h
}

// all returns the current name table; the caller must not modify it.
func (ix *index[T]) all() map[string]*T {
	if m := ix.m.Load(); m != nil {
		return *m
	}
	return nil
}

// render prints a snapshot as "name=value" pairs in sorted order, or
// empty when there is nothing to print.
func render[V uint64 | int64](snap map[string]V, empty string) string {
	if len(snap) == 0 {
		return empty
	}
	names := make([]string, 0, len(snap))
	for k := range snap {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, k := range names {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", k, snap[k])
	}
	return b.String()
}
