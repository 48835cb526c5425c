package memnet_test

// The read-deadline half of the fleet.PacketConn contract, checked on a
// kernel UDP socket and on memnet side by side: a deadline applies to a
// read already blocked, not only to the next one. The fleet's shard
// loop depends on it — admin commands, cross-shard handoffs and
// migrations wake a loop parked in a read by expiring its deadline.

import (
	"net"
	"testing"
	"time"

	"presence/internal/fleet"
	"presence/internal/memnet"
)

// pastDeadline is the already-expired deadline the fleet's wake-up
// pokes use.
var pastDeadline = time.Unix(1, 0)

// contractConn is one transport under test: a blocking read on the
// receiving side, its deadline and close, and a way to deliver one
// datagram to it.
type contractConn struct {
	read        func() error
	setDeadline func(time.Time) error
	close       func() error
	send        func()
}

func udpContractConn(t *testing.T) contractConn {
	t.Helper()
	loopback := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}
	rx, err := net.ListenUDP("udp4", loopback)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := net.ListenUDP("udp4", loopback)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rx.Close(); tx.Close() })
	to := rx.LocalAddr().(*net.UDPAddr).AddrPort()
	buf := make([]byte, 64)
	return contractConn{
		read: func() error {
			_, _, err := rx.ReadFromUDPAddrPort(buf)
			return err
		},
		setDeadline: rx.SetReadDeadline,
		close:       rx.Close,
		send:        func() { tx.WriteToUDPAddrPort([]byte("x"), to) },
	}
}

func memnetContractConn(t *testing.T, batch bool) contractConn {
	t.Helper()
	n := memnet.New(memnet.Faults{})
	rx, _ := n.Listen()
	tx, _ := n.Listen()
	t.Cleanup(func() { rx.Close(); tx.Close(); n.Close() })
	buf := make([]byte, 64)
	dgs := []fleet.Datagram{{}}
	read := func() error {
		_, _, err := rx.ReadFromUDPAddrPort(buf)
		return err
	}
	if batch {
		read = func() error {
			dgs[0].Buf = buf
			_, err := rx.ReadBatch(dgs)
			return err
		}
	}
	return contractConn{
		read:        read,
		setDeadline: rx.SetReadDeadline,
		close:       rx.Close,
		send:        func() { tx.WriteToUDPAddrPort([]byte("x"), rx.LocalAddrPort()) },
	}
}

// readResult is one finished blocking read.
type readResult struct {
	err error
	at  time.Time
}

// blockedRead starts c.read on its own goroutine and gives it time to
// park before returning.
func blockedRead(c contractConn) <-chan readResult {
	done := make(chan readResult, 1)
	go func() {
		err := c.read()
		done <- readResult{err, time.Now()}
	}()
	time.Sleep(30 * time.Millisecond)
	return done
}

func isTimeout(err error) bool {
	var nerr net.Error
	return errorsAs(err, &nerr) && nerr.Timeout()
}

func TestTransportDeadlineContract(t *testing.T) {
	transports := []struct {
		name string
		open func(*testing.T) contractConn
	}{
		{"udp", udpContractConn},
		{"memnet", func(t *testing.T) contractConn { return memnetContractConn(t, false) }},
		{"memnet-batch", func(t *testing.T) contractConn { return memnetContractConn(t, true) }},
	}
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			t.Run("expire_wakes_read", func(t *testing.T) {
				c := tr.open(t)
				c.setDeadline(time.Now().Add(10 * time.Second))
				done := blockedRead(c)
				poked := time.Now()
				c.setDeadline(pastDeadline)
				select {
				case r := <-done:
					if !isTimeout(r.err) {
						t.Fatalf("read error = %v, want a timeout", r.err)
					}
					if d := r.at.Sub(poked); d > 100*time.Millisecond {
						t.Fatalf("read returned %v after the deadline expired, want < 100ms", d)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("expiring the deadline did not wake the blocked read")
				}
			})
			t.Run("shorten_rearms_read", func(t *testing.T) {
				c := tr.open(t)
				c.setDeadline(time.Now().Add(10 * time.Second))
				done := blockedRead(c)
				short := time.Now().Add(50 * time.Millisecond)
				c.setDeadline(short)
				select {
				case r := <-done:
					if !isTimeout(r.err) {
						t.Fatalf("read error = %v, want a timeout", r.err)
					}
					if r.at.Before(short) {
						t.Fatalf("read timed out %v before the shortened deadline", short.Sub(r.at))
					}
				case <-time.After(5 * time.Second):
					t.Fatal("shortened deadline did not reach the blocked read")
				}
			})
			t.Run("extend_keeps_read_blocked", func(t *testing.T) {
				c := tr.open(t)
				c.setDeadline(time.Now().Add(50 * time.Millisecond))
				done := blockedRead(c)
				c.setDeadline(time.Now().Add(10 * time.Second))
				time.Sleep(120 * time.Millisecond) // well past the first deadline
				select {
				case r := <-done:
					t.Fatalf("read returned %v before the extended deadline", r.err)
				default:
				}
				c.send()
				select {
				case r := <-done:
					if r.err != nil {
						t.Fatalf("read error = %v, want the datagram", r.err)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("blocked read missed the datagram")
				}
			})
			t.Run("close_wakes_read", func(t *testing.T) {
				c := tr.open(t)
				c.setDeadline(time.Time{})
				done := blockedRead(c)
				c.close()
				select {
				case r := <-done:
					if r.err == nil || isTimeout(r.err) {
						t.Fatalf("read error = %v, want a non-timeout error", r.err)
					}
				case <-time.After(time.Second):
					t.Fatal("Close did not wake the blocked read")
				}
			})
		})
	}
}
