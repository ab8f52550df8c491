// Package mem models main memory, the processor's fixed-frequency fifth
// domain (paper Section 2): 80ns for the first chunk of an access and 2ns
// for each subsequent chunk, with a single channel that serializes row
// activations but pipelines transfers.
package mem

import "gals/internal/timing"

// Controller is the main-memory interface. It is deliberately simple: a
// single channel whose next free time enforces bank occupancy, with
// chunked transfer timing from package timing.
type Controller struct {
	busFree timing.FS
}

// New returns an idle memory controller.
func New() *Controller { return &Controller{} }

// Access performs a transfer of size bytes requested at time t and returns
// the completion time. Requests serialize on the channel in arrival order.
func (m *Controller) Access(t timing.FS, size int) timing.FS {
	start := t
	if m.busFree > start {
		start = m.busFree
	}
	lat := timing.MemLatency(size)
	done := start + lat
	// The channel is occupied for the transfer portion; a following access
	// can overlap its row activation with the tail of this transfer.
	chunks := (size + timing.MemChunkBytes - 1) / timing.MemChunkBytes
	m.busFree = start + timing.FS(chunks)*timing.MemNextAccess
	return done
}
