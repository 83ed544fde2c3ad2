// Known-bad corpus for the ctxprop checker: a context parameter buried
// mid-signature, a context stored in an unannotated struct field, and a
// fresh root context minted outside main.

package ctxprop

import "context"

type server struct {
	name string
	ctx  context.Context // want "stored in a struct field"
}

// The context hides at position two; every caller wiring cancellation
// scans the first parameter and misses it.
func (s *server) dialWith(addr string, ctx context.Context) error { // want "must be the first parameter"
	_ = addr
	return ctx.Err()
}

// Minting a root context outside main severs whatever lifetime the
// caller was governed by.
func (s *server) refresh() {
	s.ctx = context.Background() // want "severs the caller's cancellation chain"
}
