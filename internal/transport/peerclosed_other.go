//go:build !linux

package transport

import "syscall"

// socketPeerClosed cannot tell off Linux, and reports false: a writer then
// learns of the peer's close from a failed write.
func socketPeerClosed(syscall.Conn) bool { return false }
