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

// Lookup returns s's ID without assigning one.
func (d *Dict) Lookup(s string) (uint32, bool) {
	d.mu.RLock()
	id, ok := d.ids[s]
	d.mu.RUnlock()
	return id, ok
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

// Len returns the number of assigned IDs.
func (d *Dict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.names)
}

// Bytes estimates the table's resident size: string headers + backing bytes
// for the names slice plus a rough map-overhead charge. Used by the compact
// graph's bytes/site accounting.
func (d *Dict) Bytes() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	b := uint64(cap(d.names)) * 16 // string headers
	for _, s := range d.names {
		b += uint64(len(s))
	}
	// map entry: string header + uint32 + bucket overhead, call it 48 bytes.
	b += uint64(len(d.ids)) * 48
	return b
}

// defaultDict is the process-wide name table shared by all compact graphs,
// so the 2016 and 2020 snapshots (and any delta-derived graphs) share one
// ID space and one set of name strings.
var defaultDict = NewDict()

// NameID assigns/returns the process-wide dense ID for s.
func NameID(s string) uint32 { return defaultDict.ID(s) }

// NameOf returns the string for a process-wide ID.
func NameOf(id uint32) string { return defaultDict.Name(id) }

// GlobalDict exposes the process-wide name table.
func GlobalDict() *Dict { return defaultDict }
