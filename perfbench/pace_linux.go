package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer waits until an open-loop request's due time. time.Sleep is no
// use here: while every goroutine is parked, the Go runtime waits for
// its next timer in epoll with a millisecond timeout, so a sleep of the
// few hundred microseconds between dash requests ends up to a
// millisecond late. A timerfd is an ordinary file to the netpoller, and
// its expiry wakes epoll at once.
type pacer struct{ f *os.File }

func newPacer() (*pacer, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	// A non-blocking descriptor becomes a pollable File.
	return &pacer{f: os.NewFile(fd, "timerfd")}, nil
}

// waitUntil returns at t, or at once if t has passed.
func (p *pacer) waitUntil(t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return nil
	}
	spec := [2]syscall.Timespec{{}, syscall.NsecToTimespec(d.Nanoseconds())} // interval 0: one shot
	rc, err := p.f.SyscallConn()
	if err != nil {
		return err
	}
	var errno syscall.Errno
	if err := rc.Control(func(fd uintptr) {
		_, _, errno = syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	}); err != nil {
		return err
	}
	if errno != 0 {
		return os.NewSyscallError("timerfd_settime", errno)
	}
	var expirations [8]byte
	_, err = p.f.Read(expirations[:])
	return err
}

func (p *pacer) close() error { return p.f.Close() }
