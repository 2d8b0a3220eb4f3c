// Package sharedmutinterp is the interprocedural ownership fixture: the
// shared backing leaks through a call (snapshot's returns-shared summary),
// so a per-function analysis — which treats every call result used in
// place as unknown provenance — sees nothing wrong in this package.
package sharedmutinterp

import "sort"

type row []int

type table struct {
	rows []row //lint:shared may alias base-table storage
}

// snapshot hands out the table's shared backing directly — its summary
// says returns-shared.
func (t *table) snapshot() []row { return t.rows }

// fresh returns an owned copy — its summary says returns-fresh.
func (t *table) fresh() []row {
	out := make([]row, len(t.rows))
	copy(out, t.rows)
	return out
}

// badSort is the first seeded violation: sorting the shared backing in
// place through the call result, never bound to a local.
func badSort(t *table) {
	sort.Slice(t.snapshot(), func(i, j int) bool { return i < j })
}

// badAppend is the second seeded violation: appending into the shared
// backing handed out by snapshot.
func badAppend(t *table, extra row) {
	t.rows = append(t.snapshot(), extra)
}

// goodSort is the near-miss: same call shape, but fresh's summary proves
// the backing is owned.
func goodSort(t *table) {
	sort.Slice(t.fresh(), func(i, j int) bool { return i < j })
}
