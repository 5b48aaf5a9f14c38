package mach

// Copy-on-write paged memory backing the bus's Flash and SRAM. The
// address spaces are carved into fixed 4 KiB pages; a checkpoint
// (snapshotPages) freezes the current page set by revoking the
// memory's write ownership, so the snapshot and the live memory share
// every page until a store diverges one. Restoring is O(diverged
// pages): only pages the run dirtied since the checkpoint swing back
// to their frozen originals. This is what makes fork-per-trial
// injection campaigns cheap — a trial that touches a dozen pages pays
// for a dozen page copies, not a full power-on image rebuild.
//
// Accesses are bounds-checked by the bus (resolve/contains) before
// they reach this layer, so page arithmetic here never escapes size.

const (
	pageShift = 12 // 4 KiB pages
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// pagedMem is one page-addressable memory (Flash or SRAM).
type pagedMem struct {
	size  int
	pages [][]byte // always pageSize each; the tail page is padded
	owned []bool   // owned[i]: pages[i] is private and writable in place
}

func newPagedMem(size int) *pagedMem {
	n := (size + pageSize - 1) >> pageShift
	pm := &pagedMem{
		size:  size,
		pages: make([][]byte, n),
		owned: make([]bool, n),
	}
	if n > 0 {
		// One backing allocation, sliced into pages: power-on memory is
		// contiguous and fully owned.
		backing := make([]byte, n*pageSize)
		for i := range pm.pages {
			pm.pages[i] = backing[i*pageSize : (i+1)*pageSize : (i+1)*pageSize]
			pm.owned[i] = true
		}
	}
	return pm
}

// writablePage returns page pi with write ownership, copying it first
// if it is currently shared with a snapshot.
func (pm *pagedMem) writablePage(pi uint32) []byte {
	if !pm.owned[pi] {
		cp := make([]byte, pageSize)
		copy(cp, pm.pages[pi])
		pm.pages[pi] = cp
		pm.owned[pi] = true
	}
	return pm.pages[pi]
}

// readLE reads a 1/2/4-byte little-endian value at off. The rare
// page-straddling access assembles bytes across the boundary.
func (pm *pagedMem) readLE(off uint32, size int) uint32 {
	o := off & pageMask
	if int(o)+size <= pageSize {
		return readLE(pm.pages[off>>pageShift][o:], size)
	}
	var v uint32
	for i := 0; i < size; i++ {
		a := off + uint32(i)
		v |= uint32(pm.pages[a>>pageShift][a&pageMask]) << (8 * i)
	}
	return v
}

// writeLE writes a 1/2/4-byte little-endian value at off, diverging
// every touched page from its snapshot.
func (pm *pagedMem) writeLE(off uint32, size int, v uint32) {
	o := off & pageMask
	if int(o)+size <= pageSize {
		writeLE(pm.writablePage(off >> pageShift)[o:], size, v)
		return
	}
	for i := 0; i < size; i++ {
		a := off + uint32(i)
		pm.writablePage(a >> pageShift)[a&pageMask] = byte(v >> (8 * i))
	}
}

// view returns a read-only slice over [off, off+n) when the range lies
// within one page, nil otherwise (callers fall back to a byte loop).
// The view must not be written: the page may be snapshot-shared.
func (pm *pagedMem) view(off uint32, n int) []byte {
	if n <= 0 {
		return nil
	}
	if (off >> pageShift) != ((off + uint32(n) - 1) >> pageShift) {
		return nil
	}
	o := off & pageMask
	return pm.pages[off>>pageShift][o : o+uint32(n)]
}

// writableView is view with write ownership of the underlying page.
func (pm *pagedMem) writableView(off uint32, n int) []byte {
	if n <= 0 {
		return nil
	}
	if (off >> pageShift) != ((off + uint32(n) - 1) >> pageShift) {
		return nil
	}
	o := off & pageMask
	return pm.writablePage(off >> pageShift)[o : o+uint32(n)]
}

// snapshotPages freezes the current contents and returns the frozen
// page set. The memory gives up ownership of every page: its next
// store to any page copies first, so the returned pages are immutable
// from that point on.
func (pm *pagedMem) snapshotPages() [][]byte {
	snap := make([][]byte, len(pm.pages))
	copy(snap, pm.pages)
	for i := range pm.owned {
		pm.owned[i] = false
	}
	return snap
}

// restorePages rewinds the memory to a snapshotPages checkpoint,
// swapping back only pages that diverged (or that belong to a
// different checkpoint generation). Returns the number of pages
// swapped — the fork cost observability metric.
func (pm *pagedMem) restorePages(snap [][]byte) int {
	dirty := 0
	for i := range pm.pages {
		if pm.owned[i] || &pm.pages[i][0] != &snap[i][0] {
			pm.pages[i] = snap[i]
			pm.owned[i] = false
			dirty++
		}
	}
	return dirty
}
