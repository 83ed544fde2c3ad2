// Known-good corpus for the ctxprop checker: the context rides first in
// every signature, and the one stored context names its lifetime.

package ctxprop

import "context"

type worker struct {
	name string
	// ctx: bound to the Serve call that started this worker
	ctx context.Context
}

// Context first, everything else after.
func (w *worker) dial(ctx context.Context, addr string) error {
	_ = addr
	return ctx.Err()
}
