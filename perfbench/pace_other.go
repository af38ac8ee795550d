//go:build !linux

package main

import "time"

// pacer waits until an open-loop request's due time. Off Linux it
// sleeps, which the Go runtime may round up to a millisecond.
type pacer struct{}

func newPacer() (*pacer, error) { return &pacer{}, nil }

func (p *pacer) waitUntil(t time.Time) error {
	time.Sleep(time.Until(t))
	return nil
}

func (p *pacer) close() error { return nil }
