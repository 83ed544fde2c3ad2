// Batch receive, Linux fast path: one recvmmsg(MSG_DONTWAIT) per wakeup
// fills up to defaultBatch preallocated buffers. It runs inside
// RawConn.Read, which holds the descriptor's read lock and, when the
// closure reports an empty queue, parks the goroutine in Go's netpoller
// until the socket is readable — so an idle worker sleeps, never polls,
// and a concurrent Close releases it. The closure is built once per worker
// so the hot path allocates nothing.

//go:build linux

package report

import (
	"net"
	"net/netip"
	"syscall"
	"unsafe"
)

// mmsghdr is the kernel's struct mmsghdr: a message header and the byte
// count recvmmsg stores for it (Go pads it to the C layout).
type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32
}

// recvState is one worker's receive plumbing: each header points at its
// own iovec, buffer and sender sockaddr. n/errno are the closure's
// results, reused across calls.
type recvState struct {
	raw   syscall.RawConn
	fn    func(fd uintptr) bool
	n     int
	errno syscall.Errno
	hdrs  [defaultBatch]mmsghdr
	iovs  [defaultBatch]syscall.Iovec
	addrs [defaultBatch]syscall.RawSockaddrAny
	bufs  [defaultBatch][maxDatagram]byte
}

// init wires the headers to the worker's arrays and builds the receive
// closure on conn's RawConn.
func (r *recvState) init(conn *net.UDPConn) error {
	raw, err := conn.SyscallConn()
	if err != nil {
		return err
	}
	r.raw = raw
	for i := range r.hdrs {
		r.iovs[i].Base = &r.bufs[i][0]
		r.iovs[i].SetLen(maxDatagram)
		h := &r.hdrs[i].hdr
		h.Name = (*byte)(unsafe.Pointer(&r.addrs[i]))
		h.Namelen = syscall.SizeofSockaddrAny
		h.Iov = &r.iovs[i]
		h.Iovlen = 1
	}
	r.fn = func(fd uintptr) bool {
		n, _, e := syscall.Syscall6(syscall.SYS_RECVMMSG, fd,
			uintptr(unsafe.Pointer(&r.hdrs[0])), defaultBatch,
			syscall.MSG_DONTWAIT, 0, 0)
		if e == syscall.EAGAIN {
			return false // empty queue: park until readable
		}
		r.n, r.errno = int(n), e
		return true
	}
	return nil
}

// read blocks until at least one datagram is queued and returns how many
// one recvmmsg received.
func (r *recvState) read() (int, error) {
	if err := r.raw.Read(r.fn); err != nil {
		return 0, err
	}
	if r.errno != 0 {
		return 0, r.errno
	}
	for i := range r.n {
		r.hdrs[i].hdr.Namelen = syscall.SizeofSockaddrAny // the kernel shrank it to the sender's
	}
	return r.n, nil
}

// datagram returns the i'th received datagram.
func (r *recvState) datagram(i int) []byte { return r.bufs[i][:r.hdrs[i].len] }

// sender returns the i'th datagram's source address, converted from the
// raw kernel sockaddr without allocating (the net package's Sockaddr path
// builds interface values).
func (r *recvState) sender(i int) netip.AddrPort {
	switch rsa := &r.addrs[i]; rsa.Addr.Family {
	case syscall.AF_INET:
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(rsa))
		p := (*[2]byte)(unsafe.Pointer(&sa.Port)) // sin_port is big-endian in memory
		return netip.AddrPortFrom(netip.AddrFrom4(sa.Addr), uint16(p[0])<<8|uint16(p[1]))
	case syscall.AF_INET6:
		sa := (*syscall.RawSockaddrInet6)(unsafe.Pointer(rsa))
		p := (*[2]byte)(unsafe.Pointer(&sa.Port))
		return netip.AddrPortFrom(netip.AddrFrom16(sa.Addr), uint16(p[0])<<8|uint16(p[1]))
	}
	return netip.AddrPort{}
}
