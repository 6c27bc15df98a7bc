package metrics

import (
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// index is the name table shared by Counters and Gauges: every name in
// names, under mu, and a copy of it behind an atomic pointer that a read
// resolves through with one load and one map read. Registering a name
// copies nothing; the first read that misses the copy afterwards
// republishes it. Names are never removed, so a handle stays valid for
// the registry's life.
type index[T any] struct {
	read  atomic.Pointer[map[string]*T] // never modified once stored
	mu    sync.Mutex
	names map[string]*T // every registered name; guarded by mu
}

// get returns name's handle, registering a fresh one on first use unless
// fresh is nil. Concurrent first uses of one name agree on a single handle.
func (ix *index[T]) get(name string, fresh func() *T) *T {
	if m := ix.read.Load(); m != nil {
		if h := (*m)[name]; h != nil {
			return h
		}
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if h := ix.names[name]; h != nil || fresh == nil {
		ix.publish()
		return h
	}
	if ix.names == nil {
		ix.names = make(map[string]*T)
	}
	h := fresh()
	ix.names[name] = h
	return h
}

// all returns every registered name's handle; the caller must not modify
// the map.
func (ix *index[T]) all() map[string]*T {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.publish()
}

// publish returns the read copy, first replacing it with a copy of names
// if a name was registered since it was made. The caller holds mu.
func (ix *index[T]) publish() map[string]*T {
	if m := ix.read.Load(); m != nil && len(*m) == len(ix.names) {
		return *m
	}
	m := maps.Clone(ix.names)
	ix.read.Store(&m)
	return m
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
