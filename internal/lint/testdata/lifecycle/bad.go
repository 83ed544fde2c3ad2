// Known-bad corpus for the lifecycle checker: goroutines with no
// shutdown path — literal receive and select loops, a sleep-poll loop
// with no channel at all, a named function (followed through the spawn)
// ranging over a channel no loaded package closes, a literal ranging
// over a parameter nothing closes, a select loop whose only break is
// swallowed by the select itself, and a bounded loop that parks in a
// receive.

package lifecycle

import "time"

type pump struct {
	in   chan int
	tick chan time.Time
	out  []int
}

// The literal loops on a receive forever: no select escape case, no
// return, no break.
func (p *pump) spawnRecvLoop() {
	go func() {
		for { // want "loops forever into a channel receive"
			v := <-p.in
			p.out = append(p.out, v)
		}
	}()
}

// The spawn is followed to the named drain method, whose range can only
// exit when p.in is closed — and nothing in the program closes it.
func (p *pump) startDrain() {
	go p.drain()
}

func (p *pump) drain() {
	for v := range p.in { // want "ranges over a channel"
		p.out = append(p.out, v)
	}
}

// The break leaves the select, not the for — there is still no way out
// of the loop, and neither channel is a cancellation signal.
func (p *pump) spawnSelectLoop() {
	go func() {
		for { // want "loops forever into a select"
			select {
			case v := <-p.in:
				if v < 0 {
					break
				}
				p.out = append(p.out, v)
			case <-p.tick:
			}
		}
	}()
}

// The spawned poller loops forever into time.Sleep: no return, no
// break, no select escape — it can never be shut down.
func (p *pump) startPoller() {
	go func() {
		for { // want "loops forever into time.Sleep"
			time.Sleep(10 * time.Millisecond)
			p.out = append(p.out, 0)
		}
	}()
}

func leakyWorker(ch chan int, out chan<- int) {
	go func() {
		for { // want "loops forever into a channel receive"
			v := <-ch
			out <- v
		}
	}()
}

func leakySelect(a, b chan int) {
	go func() {
		for { // want "loops forever into a select"
			select {
			case v := <-a:
				_ = v
			case v := <-b:
				_ = v
			}
		}
	}()
}

// The loop is bounded, but each pass parks in a receive: once the
// sender stops, the goroutine never reaches the bound.
func leakyDrain(ch chan struct{}) {
	go func() {
		for i := 0; i < 1000; i++ { // want "leaks if the sender stops"
			<-ch
		}
	}()
}

// The range ends only when ch is closed, and nothing closes it.
func rangeWorker(ch chan int, out chan<- int) {
	go func() {
		for v := range ch { // want "ranges over a channel"
			out <- v
		}
	}()
}
