//go:build !linux

package main

import (
	"net"
	"syscall"
)

type rawSender struct{}

func (r *rawSender) init(*net.UDPConn) error { return nil }

func (r *rawSender) send(c *net.UDPConn, batch []*datagram) (int, error) {
	return writeEach(c, batch)
}

func childProcAttr() *syscall.SysProcAttr { return nil }
