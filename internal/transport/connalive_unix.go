//go:build unix

package transport

import (
	"net"
	"syscall"
)

// connAlive reports whether an idle pooled connection can carry another
// request: one non-blocking read that must find nothing to read. EAGAIN
// means the peer still holds its end open and has sent nothing; end of
// file (the peer closed or restarted), any other error, or bytes nobody
// asked for mean the connection is discarded before a request is written
// on it. The read goes through the runtime poller's bookkeeping, so the
// connection's read deadline must not have passed.
func connAlive(c net.Conn) bool {
	sc, ok := c.(syscall.Conn)
	if !ok {
		return false
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return false
	}
	alive := false
	err = rc.Read(func(fd uintptr) bool {
		var b [1]byte
		_, rerr := syscall.Read(int(fd), b[:])
		alive = rerr == syscall.EAGAIN || rerr == syscall.EWOULDBLOCK
		return true // never wait for readability
	})
	return err == nil && alive
}
