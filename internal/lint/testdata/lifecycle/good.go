// Known-good corpus for the lifecycle checker: every accepted shutdown
// shape — ctx.Done()/time.After select cases, comma-ok receive with
// return, bounded loops, labeled break out of a select, break out of a
// range, a ranged channel whose close() in the spawner is credited
// through the spawn-site argument substitution, a sleep-poll loop with
// a select escape, and a single receive outside any loop.

package lifecycle

import (
	"context"
	"time"
)

type loopset struct {
	in   chan int
	quit chan struct{}
	out  []int
}

// A ctx.Done() case is a cancellation signal even without an explicit
// return — the goroutine has a shutdown path.
func (l *loopset) spawnCtxOnly(ctx context.Context) {
	go func() {
		for {
			select {
			case <-ctx.Done():
			case v := <-l.in:
				l.out = append(l.out, v)
			}
		}
	}()
}

// Comma-ok receive with a return on closure.
func (l *loopset) spawnCommaOk() {
	go func() {
		for {
			v, ok := <-l.in
			if !ok {
				return
			}
			l.out = append(l.out, v)
		}
	}()
}

// A conditioned loop terminates on its own.
func (l *loopset) spawnBounded(n int) {
	go func() {
		for i := 0; i < n; i++ {
			l.in <- i
		}
	}()
}

// A time.After case bounds every iteration.
func (l *loopset) spawnTimeout() {
	go func() {
		for {
			select {
			case <-time.After(time.Second):
			case v := <-l.in:
				l.out = append(l.out, v)
			}
		}
	}()
}

// The labeled break escapes the loop from inside the select.
func (l *loopset) spawnBreak() {
	go func() {
	loop:
		for {
			select {
			case v := <-l.in:
				if v < 0 {
					break loop
				}
				l.out = append(l.out, v)
			case <-l.quit:
				break loop
			}
		}
	}()
}

// A plain break in the range body leaves the loop.
func (l *loopset) spawnRangeBreak() {
	go func() {
		for v := range l.in {
			if v == 0 {
				break
			}
		}
	}()
}

// The spawner closes the channel it hands to consume: the callee's range
// over its parameter is credited with that close through the spawn-site
// arguments, so the goroutine drains and exits.
func produceConsume(vals []int) []int {
	ch := make(chan int)
	done := make(chan []int)
	go consume(ch, done)
	for _, v := range vals {
		ch <- v
	}
	close(ch)
	return <-done
}

func consume(ch chan int, done chan []int) {
	var got []int
	for v := range ch {
		got = append(got, v)
	}
	done <- got
}

// The poller loops into time.Sleep too — but the select escape case
// gives cancellation a way in, so the loop can exit.
func (l *loopset) startPoller(ctx context.Context) {
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case <-l.quit:
				return
			default:
			}
			time.Sleep(10 * time.Millisecond)
			l.out = append(l.out, 0)
		}
	}()
}

func commaOkWorker(ch chan int, out chan<- int) {
	go func() {
		for {
			v, ok := <-ch
			if !ok {
				return
			}
			out <- v
		}
	}()
}

func ctxWorker(ctx context.Context, ch chan int) {
	go func() {
		for {
			select {
			case v := <-ch:
				_ = v
			case <-ctx.Done():
				return
			}
		}
	}()
}

func timeoutLoop(ch chan int) {
	go func() {
		for {
			select {
			case v := <-ch:
				_ = v
			case <-time.After(time.Second):
				return
			}
		}
	}()
}

func boundedWait(ch chan int) {
	go func() {
		<-ch // a single receive is bounded, not a loop
	}()
}
