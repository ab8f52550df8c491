package service

import "gals/internal/sweep"

// Priority orders competing work on the service's shared cell pool: higher
// runs first, ties run in submission order (FIFO). Values outside the named
// constants are accepted — the pool only compares.
type Priority = int

// Named priority levels for requests.
const (
	PriorityLow    Priority = -10
	PriorityNormal Priority = 0
	PriorityHigh   Priority = 10
)

// Scheduling errors, surfaced from the shared cell pool
// (internal/sweep): the service schedules every request — single runs,
// batches, sweeps, suite pipelines — as cells on one bounded pool, so these
// are the only overload signals. HTTP maps both to 503.
var (
	// ErrQueueFull is returned when admitting a request's cells would push
	// the pending-cell count past Config.QueueDepth; the server sheds load
	// instead of hoarding memory.
	ErrQueueFull = sweep.ErrQueueFull
	// ErrClosed is returned for submissions after Close.
	ErrClosed = sweep.ErrClosed
)
