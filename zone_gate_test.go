//go:build !race

package depscope

import (
	"runtime"
	"testing"

	"depscope/internal/dnszone"
	"depscope/internal/ecosystem"
)

// maxZoneBytesPerRecord bounds what a world's zone store retains per
// record: the record itself (at most 72 bytes), its share of the owner and
// target strings, and its share of the zone around it (origin, SOA, block
// header and the store's map slot). The block-per-zone store measures
// about 120 bytes at 10K sites; the map-per-zone store it replaced held
// about 300.
const maxZoneBytesPerRecord = 150

// zoneStoreBytes materializes the zones of one snapshot of u and returns
// the store with the live heap it retains and its record count. The world
// around the store (certificates, CNAME map) is garbage by the second GC,
// so the delta is the zones alone.
func zoneStoreBytes(u *ecosystem.Universe, snap ecosystem.Snapshot) (*dnszone.Store, uint64, int) {
	v, bytes := retainedBytes(func() any {
		c := ecosystem.NewChunked(u, snap)
		c.AddSites(0, c.Len())
		return c.World().Zones
	})
	store := v.(*dnszone.Store)
	records := 0
	for _, origin := range store.Origins() {
		records += len(store.Zone(origin).AllRecords())
	}
	return store, bytes, records
}

// TestGateZoneBytesPerRecord is the zone store's memory gate, run by `make
// bench-gates`: the 10K-site 2020 world's zones must retain at most
// maxZoneBytesPerRecord bytes per record. It reads HeapAlloc, so it must
// not run in parallel with other tests.
func TestGateZoneBytesPerRecord(t *testing.T) {
	u, err := ecosystem.Generate(ecosystem.Options{Scale: 10000, Seed: 2020})
	if err != nil {
		t.Fatal(err)
	}
	for _, snap := range []ecosystem.Snapshot{ecosystem.Y2016, ecosystem.Y2020} {
		store, bytes, records := zoneStoreBytes(u, snap)
		if records == 0 {
			t.Fatalf("%s: no records materialized", snap)
		}
		perRecord := float64(bytes) / float64(records)
		t.Logf("%s zones at 10K: %d zones, %d records, %.2f MB retained, %.1f bytes/record",
			snap, store.ZoneCount(), records, float64(bytes)/1e6, perRecord)
		if snap == ecosystem.Y2020 && perRecord > maxZoneBytesPerRecord {
			t.Errorf("%s zones retain %.1f bytes/record, above the %d-byte bound",
				snap, perRecord, maxZoneBytesPerRecord)
		}
		runtime.KeepAlive(store)
	}
}
