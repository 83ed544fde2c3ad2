// Receive fallback: platforms without the recvmmsg path make one blocking
// read per wakeup, so every batch is the one datagram it delivered.
// Correctness is unchanged — batching is purely an amortization.

//go:build !linux

package report

import (
	"net"
	"net/netip"
)

// recvState is the fallback's single receive buffer.
type recvState struct {
	conn *net.UDPConn
	buf  [maxDatagram]byte
	n    int
	from netip.AddrPort
}

// init records the socket to read from.
func (r *recvState) init(conn *net.UDPConn) error {
	r.conn = conn
	return nil
}

// read blocks for one datagram: a batch of one.
func (r *recvState) read() (int, error) {
	n, from, err := r.conn.ReadFromUDPAddrPort(r.buf[:])
	if err != nil {
		return 0, err
	}
	r.n, r.from = n, from
	return 1, nil
}

// datagram returns the received datagram.
func (r *recvState) datagram(int) []byte { return r.buf[:r.n] }

// sender returns the datagram's source address.
func (r *recvState) sender(int) netip.AddrPort { return r.from }
