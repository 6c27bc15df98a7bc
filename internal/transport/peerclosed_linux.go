package transport

import "syscall"

// tcpEstablished is the kernel's TCP_ESTABLISHED state.
const tcpEstablished = 1

// socketPeerClosed reads the socket's TCP state, which leaves ESTABLISHED
// when the peer's FIN or reset arrives, however many unread bytes came
// before it; a peek at the data would stop at those. The state is the
// first byte of TCP_INFO: GetsockoptInet4Addr reads exactly the first
// four bytes of an option, whatever it holds. A socket that can no longer
// be asked, closed on this side, reports true.
func socketPeerClosed(c syscall.Conn) bool {
	rc, err := c.SyscallConn()
	if err != nil {
		return true
	}
	state := byte(tcpEstablished)
	if err := rc.Control(func(fd uintptr) {
		if info, err := syscall.GetsockoptInet4Addr(int(fd), syscall.IPPROTO_TCP, syscall.TCP_INFO); err == nil {
			state = info[0]
		}
	}); err != nil {
		return true
	}
	return state != tcpEstablished
}
