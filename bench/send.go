package main

// The load generator: one goroutine per sender, each with its own connected
// UDP socket and its own seeded datagram stream, sending on a fixed
// open-loop schedule and reporting how late it ran.

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"veridp/internal/topo"
)

const (
	sendTick  = time.Millisecond // schedule granularity
	maxBatch  = 64               // datagrams per sendmmsg
	lateAfter = 10 * sendTick    // a datagram sent later than this after it was due is late
	giveUp    = 20 * sendTick    // backlog beyond this is dropped from the schedule, not burst
)

// phaseCount is what one sender did in one phase, with the reference
// verdicts of what it sent.
type phaseCount struct {
	sent       uint64
	late       uint64 // sent more than lateAfter behind schedule
	skipped    uint64 // never sent: the schedule had moved on by giveUp
	maxBehind  time.Duration
	violations uint64
	blamed     map[topo.SwitchID]uint64
	probeTimes []time.Time // zipf_churn: when each live probe was made
}

func (c *phaseCount) add(o *phaseCount) {
	c.sent += o.sent
	c.late += o.late
	c.skipped += o.skipped
	c.maxBehind = max(c.maxBehind, o.maxBehind)
	c.violations += o.violations
	for sw, n := range o.blamed {
		c.blamed[sw] += n
	}
	c.probeTimes = append(c.probeTimes, o.probeTimes...)
}

type sender struct {
	conn   *net.UDPConn
	raw    rawSender
	dgrams []datagram
	stream []uint32
	pos    int

	// zipf_churn: every probeEvery-th datagram is made at send time from
	// the harness fabric's current state.
	probe   *prober
	scratch [maxBatch]datagram
	slot    int

	batch [maxBatch]*datagram
}

// prober makes a live probe of the rule currently being toggled.
type prober struct {
	dep     *deployment
	rules   []churnRule
	current func() int // index into rules
}

func (p *prober) fill(d *datagram) error {
	cr := p.rules[p.current()]
	p.dep.mu.Lock()
	r, err := reportOf(p.dep.fabric, cr.inport, cr.hdr)
	p.dep.mu.Unlock()
	if err != nil {
		return err
	}
	*d = datagram{}
	copy(d.wire[:], r.Marshal())
	return nil
}

// generator owns the senders aimed at one UDP address.
type generator struct {
	senders []*sender
}

func newGenerator(target string, ts *trafficSet, n int, probe *prober) (*generator, error) {
	ua, err := net.ResolveUDPAddr("udp", target)
	if err != nil {
		return nil, err
	}
	if n > len(ts.streams) {
		return nil, fmt.Errorf("%d senders but only %d datagram streams", n, len(ts.streams))
	}
	g := &generator{}
	for i := 0; i < n; i++ {
		c, err := net.DialUDP("udp", nil, ua)
		if err != nil {
			g.close()
			return nil, err
		}
		s := &sender{conn: c, dgrams: ts.dgrams, stream: ts.streams[i], probe: probe}
		if err := s.raw.init(c); err != nil {
			g.close()
			return nil, err
		}
		g.senders = append(g.senders, s)
	}
	return g, nil
}

func (g *generator) close() {
	for _, s := range g.senders {
		s.conn.Close()
	}
}

// run sends at rate datagrams/s in total (0 = as fast as the sockets take
// them) for dur, and returns the folded counts and the wall time taken.
func (g *generator) run(ctx context.Context, rate float64, dur time.Duration) (*phaseCount, time.Duration, error) {
	counts := make([]phaseCount, len(g.senders))
	errs := make([]error, len(g.senders))
	start := time.Now()
	var wg sync.WaitGroup
	for i, s := range g.senders {
		// Senders interleave: each starts a fraction of a tick after the last.
		offset := time.Duration(i) * sendTick / time.Duration(len(g.senders))
		wg.Add(1)
		go func() {
			defer wg.Done()
			counts[i].blamed = make(map[topo.SwitchID]uint64)
			errs[i] = s.run(ctx, &counts[i], rate/float64(len(g.senders)), start.Add(offset), dur)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	total := &phaseCount{blamed: make(map[topo.SwitchID]uint64)}
	for i := range counts {
		if errs[i] != nil {
			return nil, 0, errs[i]
		}
		total.add(&counts[i])
	}
	return total, elapsed, nil
}

func (s *sender) run(ctx context.Context, c *phaseCount, rate float64, start time.Time, dur time.Duration) error {
	if rate <= 0 {
		for time.Since(start) < dur && ctx.Err() == nil {
			if err := s.send(c, maxBatch, false); err != nil {
				return err
			}
		}
		return nil
	}
	perTick := rate * sendTick.Seconds()
	var due float64
	var scheduled uint64
	for k := 0; ctx.Err() == nil; k++ {
		at := time.Duration(k) * sendTick
		if at >= dur {
			break
		}
		if d := time.Until(start.Add(at)); d > 0 {
			time.Sleep(d)
		}
		due += perTick
		n := int(uint64(due) - scheduled)
		scheduled += uint64(n)
		behind := time.Since(start.Add(at))
		c.maxBehind = max(c.maxBehind, behind)
		if behind > giveUp {
			c.skipped += uint64(n) // an open loop does not burst a long stall's backlog
			continue
		}
		for n > 0 {
			m := min(n, maxBatch)
			if err := s.send(c, m, behind > lateAfter); err != nil {
				return err
			}
			n -= m
		}
	}
	return nil
}

// send transmits the next n datagrams of the stream and accounts for the
// ones the kernel accepted.
func (s *sender) send(c *phaseCount, n int, late bool) error {
	for i := 0; i < n; i++ {
		s.slot++
		if s.probe != nil && s.slot%probeEvery == 0 {
			d := &s.scratch[i]
			if err := s.probe.fill(d); err != nil {
				return err
			}
			c.probeTimes = append(c.probeTimes, time.Now())
			s.batch[i] = d
			continue
		}
		s.batch[i] = &s.dgrams[s.stream[s.pos]]
		if s.pos++; s.pos == len(s.stream) {
			s.pos = 0
		}
	}
	sent, err := s.raw.send(s.conn, s.batch[:n])
	for _, d := range s.batch[:sent] {
		if d.violation {
			c.violations++
			if d.localized {
				c.blamed[d.blamed]++
			}
		}
	}
	c.sent += uint64(sent)
	if late {
		c.late += uint64(sent)
	}
	return err
}

// writeEach is the portable send path: one Write per datagram.
//
// lint:deadline conn=c a UDP datagram write to a connected loopback socket
// completes or drops at once; a deadline per report would add a syscall to
// the path whose rate is being measured.
func writeEach(c *net.UDPConn, batch []*datagram) (int, error) {
	for i, d := range batch {
		if _, err := c.Write(d.wire[:]); err != nil {
			return i, err
		}
	}
	return len(batch), nil
}

// lateFrac is the share of scheduled datagrams that left late or not at all.
func (c *phaseCount) lateFrac() float64 {
	return ratio(float64(c.late+c.skipped), float64(c.sent+c.skipped))
}
