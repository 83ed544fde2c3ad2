// Known-bad corpus for the ctxflow interaction test: one relay type
// violates all three lifetime checkers at distinct positions — the
// spawned heartbeat loops forever with no cancellation (lifecycle), the
// reconnect loop retries dialing unboundedly (retrybound), and the
// flush writes on a conn no caller ever arms (deadline). Each checker
// must report its own violation without masking the others.

package ctxinteraction

import (
	"net"
	"time"
)

type relay struct {
	addr string
	conn net.Conn
}

// The heartbeat goroutine sleep-loops forever: no stop signal reaches
// it.
func (r *relay) start() {
	go func() {
		for { // want "loops forever into"
			time.Sleep(50 * time.Millisecond)
			r.flush()
		}
	}()
}

// Reconnecting forever, full speed: no counter, no context, no backoff.
func (r *relay) reconnect() {
	for { // want "retries net.Dial without a bound"
		c, err := net.Dial("tcp", r.addr)
		if err != nil {
			continue
		}
		r.conn = c
		return
	}
}

// The write trusts a deadline nobody ever arms.
func (r *relay) flush() {
	if r.conn == nil {
		return
	}
	r.conn.Write([]byte("beat")) // want "reaches a caller"
}
