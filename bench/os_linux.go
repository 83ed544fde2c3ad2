//go:build linux

package main

import (
	"net"
	"runtime"
	"syscall"
	"unsafe"
)

// sendmmsg has no constant in package syscall on every architecture.
var sysSendmmsg = map[string]uintptr{"amd64": 307, "arm64": 269, "386": 345, "arm": 374}[runtime.GOARCH]

type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

// rawSender sends a batch of datagrams with one sendmmsg call on the
// socket's own descriptor. The callback is built once so a send allocates
// nothing.
type rawSender struct {
	rc   syscall.RawConn
	msgs [maxBatch]mmsghdr
	iovs [maxBatch]syscall.Iovec
	n    int
	sent int
	err  error
	call func(fd uintptr) bool
}

func (r *rawSender) init(c *net.UDPConn) error {
	rc, err := c.SyscallConn()
	if err != nil {
		return err
	}
	r.rc = rc
	for i := range r.msgs {
		r.iovs[i].SetLen(len(datagram{}.wire))
		r.msgs[i].hdr.Iov = &r.iovs[i]
		r.msgs[i].hdr.Iovlen = 1
	}
	r.call = func(fd uintptr) bool {
		for {
			n, _, errno := syscall.Syscall6(sysSendmmsg, fd, uintptr(unsafe.Pointer(&r.msgs[0])), uintptr(r.n), 0, 0, 0)
			switch errno {
			case 0:
				r.sent = int(n)
				return true
			case syscall.EINTR:
				continue
			case syscall.EAGAIN:
				return false // wait for the socket buffer to drain
			default:
				r.err = errno
				return true
			}
		}
	}
	return nil
}

// send returns how many of the datagrams the kernel accepted.
func (r *rawSender) send(c *net.UDPConn, batch []*datagram) (int, error) {
	if sysSendmmsg == 0 {
		return writeEach(c, batch)
	}
	for i, d := range batch {
		r.iovs[i].Base = &d.wire[0]
	}
	r.n, r.sent, r.err = len(batch), 0, nil
	if err := r.rc.Write(r.call); err != nil {
		return 0, err
	}
	return r.sent, r.err
}

// childProcAttr makes the kernel kill the server should the harness die
// before it has stopped it.
func childProcAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
