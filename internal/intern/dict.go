// Package intern maps names to dense IDs: the columnar graph backend stores
// every site and provider name as a uint32 into a Dict.
package intern

import (
	"fmt"
	"sync"
)

// Dict is an append-only name table assigning each distinct string a dense
// uint32 ID in first-seen order. The columnar graph backend stores every
// site/provider name as an ID: edge arrays shrink from string headers (16
// bytes + backing data, each a GC pointer to scan) to 4-byte integers, and
// the IDs double as array indexes so lookups lose the map hop. IDs are never
// reused or removed — a Dict only grows — which is what makes handing out
// raw uint32s safe. A Dict keeps the string it is first given for a name,
// so it adds index structure but no second copy of the name.
//
// All methods are safe for concurrent use; the expected pattern is a
// single-writer builder with concurrent readers afterwards.
type Dict struct {
	mu    sync.RWMutex
	ids   map[string]uint32
	names []string
}

// NewDict creates an empty name table.
func NewDict() *Dict {
	return &Dict{ids: make(map[string]uint32)}
}

// ID returns s's dense ID, assigning the next free one on first sight.
func (d *Dict) ID(s string) uint32 {
	d.mu.RLock()
	id, ok := d.ids[s]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok = d.ids[s]; ok {
		return id
	}
	if len(d.names) >= 1<<32-1 {
		// 4 billion distinct names means something upstream is generating
		// garbage; fail loudly rather than alias IDs.
		panic("intern: Dict overflow")
	}
	id = uint32(len(d.names))
	d.names = append(d.names, s)
	d.ids[s] = id
	return id
}

// Name returns the string for a previously assigned ID. Unknown IDs panic:
// they can only come from memory corruption or a cross-Dict mixup, and
// returning "" would silently merge distinct names downstream.
func (d *Dict) Name(id uint32) string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if int(id) >= len(d.names) {
		panic(fmt.Sprintf("intern: Dict.Name(%d) out of range (len %d)", id, len(d.names)))
	}
	return d.names[id]
}

// defaultDict is the process-wide name table shared by all compact graphs,
// so the 2016 and 2020 snapshots (and any delta-derived graphs) share one
// ID space and one set of name strings.
var defaultDict = NewDict()

// GlobalDict exposes the process-wide name table.
func GlobalDict() *Dict { return defaultDict }
