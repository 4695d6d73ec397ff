//go:build !unix

package transport

import "net"

// connAlive cannot probe a socket without blocking off unix, and a pooled
// connection that cannot be proven alive must not carry a request that is
// never resent: every idle connection is discarded, so every call dials.
func connAlive(net.Conn) bool { return false }
