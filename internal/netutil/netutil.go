// Package netutil holds the shared lifetime-and-retry vocabulary for the
// monitor's long-lived network loops: a capped exponential backoff that
// waits under a context, the temporary-error test that decides whether an
// Accept/Dial failure is worth retrying at all, and the token bucket that
// keeps a flood of bad input from turning into a flood of log lines. Every accept
// and reconnect loop in the repo goes through Backoff.Sleep, which is the
// shape the retrybound checker certifies as a bound (context check plus
// capped growth) — a loop that retries I/O without one of these is a
// hot-spin or a retry-forever hazard and lints dirty.
package netutil

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Backoff defaults: the first retry waits DefaultMin, each subsequent
// failure doubles the wait, and DefaultMax caps it — the same 5ms→1s
// ramp net/http uses for temporary Accept errors.
const (
	DefaultMin = 5 * time.Millisecond
	DefaultMax = 1 * time.Second
)

// Backoff is a capped exponential delay for retry loops. The zero value
// is ready to use with the default ramp. It is not safe for concurrent
// use; each retry loop owns its own Backoff.
type Backoff struct {
	// Min is the first delay (DefaultMin when zero).
	Min time.Duration
	// Max caps the doubling (DefaultMax when zero).
	Max time.Duration

	cur time.Duration
}

// Sleep waits the current delay (doubling it, capped at Max, for the
// next call) and reports whether the wait completed. It returns false
// immediately when ctx is cancelled — the loop must exit, not retry.
func (b *Backoff) Sleep(ctx context.Context) bool {
	d := b.cur
	if d <= 0 {
		d = b.Min
		if d <= 0 {
			d = DefaultMin
		}
	}
	max := b.Max
	if max <= 0 {
		max = DefaultMax
	}
	next := d * 2
	if next > max {
		next = max
	}
	b.cur = next
	if ctx.Err() != nil {
		return false
	}
	// A stopped Timer is reclaimed immediately; time.After would pin its
	// channel for the full delay even when ctx fires first.
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// Reset returns the delay to Min; call it after a successful attempt so
// the next failure starts the ramp over.
func (b *Backoff) Reset() { b.cur = 0 }

// IsTemporary reports whether a network error is worth retrying:
// timeouts and errors that self-describe as temporary. A closed listener
// or socket (net.ErrClosed) is always permanent — it is how cancellation
// is delivered to a parked Accept or Read.
func IsTemporary(err error) bool {
	if err == nil || errors.Is(err, net.ErrClosed) {
		return false
	}
	var ne net.Error
	if errors.As(err, &ne) {
		// Temporary is deprecated in general but remains the accept-loop
		// retry contract net/http relies on; Timeout alone misses
		// ECONNABORTED-style transient accept failures.
		return ne.Timeout() || ne.Temporary()
	}
	return false
}

// Log flood control: at most logBurst lines at once, refilled at
// logRefillPerSec.
const (
	logBurst        = 10
	logRefillPerSec = 1
)

// LogLimiter is a token bucket in front of a logger. It bounds the log
// volume a misbehaving or adversarial peer can cause (a switch flooding
// garbage datagrams, a faulty data plane failing every report), and folds
// what it drops into the next line it lets through as "(N similar lines
// suppressed)". Callers keep their own counters: only log lines are
// rate-limited. Safe for concurrent use.
type LogLimiter struct {
	logger *log.Logger // nil discards every line

	mu     sync.Mutex
	tokens float64   // guarded by mu
	last   time.Time // guarded by mu

	suppressed atomic.Uint64 // lines dropped since the last one printed
}

// NewLogLimiter rate-limits logger, which may be nil.
func NewLogLimiter(logger *log.Logger) *LogLimiter {
	return &LogLimiter{logger: logger}
}

// Printf logs through the bucket, or counts the line as suppressed when
// the bucket is empty.
func (l *LogLimiter) Printf(format string, args ...any) {
	if l.logger == nil {
		return
	}
	if !l.allow(time.Now()) {
		l.suppressed.Add(1)
		return
	}
	if n := l.suppressed.Swap(0); n > 0 {
		format += fmt.Sprintf(" (%d similar lines suppressed)", n)
	}
	l.logger.Printf(format, args...)
}

// allow consumes a token if one is available.
func (l *LogLimiter) allow(now time.Time) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.last.IsZero() {
		l.tokens = logBurst
	} else {
		l.tokens += now.Sub(l.last).Seconds() * logRefillPerSec
		if l.tokens > logBurst {
			l.tokens = logBurst
		}
	}
	l.last = now
	if l.tokens < 1 {
		return false
	}
	l.tokens--
	return true
}
