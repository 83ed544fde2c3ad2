package netutil

import (
	"bytes"
	"context"
	"errors"
	"log"
	"net"
	"strings"
	"testing"
	"time"
)

// TestBackoffRamp verifies the delay doubles from Min and caps at Max.
func TestBackoffRamp(t *testing.T) {
	b := &Backoff{Min: time.Millisecond, Max: 4 * time.Millisecond}
	ctx := context.Background()
	want := []time.Duration{2 * time.Millisecond, 4 * time.Millisecond, 4 * time.Millisecond}
	for i, w := range want {
		if !b.Sleep(ctx) {
			t.Fatalf("Sleep %d: cancelled with live context", i)
		}
		if b.cur != w {
			t.Fatalf("after Sleep %d: next delay = %v, want %v", i, b.cur, w)
		}
	}
	b.Reset()
	if b.cur != 0 {
		t.Fatalf("after Reset: cur = %v, want 0", b.cur)
	}
}

// TestBackoffDefaults verifies the zero value uses the stdlib-style ramp.
func TestBackoffDefaults(t *testing.T) {
	var b Backoff
	if !b.Sleep(context.Background()) {
		t.Fatal("zero-value Sleep cancelled with live context")
	}
	if b.cur != 2*DefaultMin {
		t.Fatalf("after first Sleep: next delay = %v, want %v", b.cur, 2*DefaultMin)
	}
}

// TestBackoffCancelled verifies Sleep returns false without waiting when
// the context is already done, and when it fires mid-wait.
func TestBackoffCancelled(t *testing.T) {
	done, cancel := context.WithCancel(context.Background())
	cancel()
	b := &Backoff{Min: time.Hour}
	start := time.Now()
	if b.Sleep(done) {
		t.Fatal("Sleep returned true under a cancelled context")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("Sleep waited %v under a cancelled context", elapsed)
	}

	mid, cancelMid := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancelMid()
	}()
	start = time.Now()
	if (&Backoff{Min: time.Hour}).Sleep(mid) {
		t.Fatal("Sleep outlived a mid-wait cancellation")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("Sleep took %v to observe cancellation", elapsed)
	}
}

// timeoutErr is a net.Error whose Timeout/Temporary answers are configurable.
type timeoutErr struct{ timeout, temporary bool }

func (e timeoutErr) Error() string   { return "timeoutErr" }
func (e timeoutErr) Timeout() bool   { return e.timeout }
func (e timeoutErr) Temporary() bool { return e.temporary }

func TestIsTemporary(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"closed", net.ErrClosed, false},
		{"wrapped closed", errors.Join(errors.New("accept"), net.ErrClosed), false},
		{"timeout", timeoutErr{timeout: true}, true},
		{"temporary", timeoutErr{temporary: true}, true},
		{"permanent net.Error", timeoutErr{}, false},
		{"plain error", errors.New("boom"), false},
	}
	for _, tc := range cases {
		if got := IsTemporary(tc.err); got != tc.want {
			t.Errorf("IsTemporary(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestLogLimiterFoldsSuppressedLines: a burst past the bucket prints
// logBurst lines, and the first line after the refill names how many were
// dropped in between.
func TestLogLimiterFoldsSuppressedLines(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogLimiter(log.New(&buf, "", 0))
	for i := 0; i < logBurst+5; i++ {
		l.Printf("line %d", i)
	}
	if got := strings.Count(buf.String(), "\n"); got != logBurst {
		t.Fatalf("burst printed %d lines, want %d:\n%s", got, logBurst, buf.String())
	}
	l.mu.Lock()
	l.last = l.last.Add(-2 * time.Second / logRefillPerSec) // two tokens' worth of quiet
	l.mu.Unlock()
	buf.Reset()
	l.Printf("after")
	if want := "after (5 similar lines suppressed)\n"; buf.String() != want {
		t.Fatalf("line after refill = %q, want %q", buf.String(), want)
	}

	NewLogLimiter(nil).Printf("discarded") // a nil logger is a no-op
}
