package device

import (
	"math"

	"failstutter/internal/sim"
)

// poisonedDiskOp and poisonedLinkMsg replace a released record's OnDone.
func poisonedDiskOp(*sim.Request)  { panic("device: diskOp completed after its release") }
func poisonedLinkMsg(*sim.Request) { panic("device: linkMsg completed after its release") }

// poisonRequest overwrites a record's request as the record goes back to
// its free list, so a holder that touches it after its completion fails
// loudly instead of reading or resubmitting a later request's state: a
// resubmission panics on the NaN size, a completion on the poisoned
// OnDone.
func poisonRequest(r *sim.Request, onDone func(*sim.Request)) {
	r.Size = math.NaN()
	r.OnDone = onDone
}
