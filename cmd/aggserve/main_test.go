package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestHTTPServerTimeouts pins the connection timeouts aggserve serves
// with: none may be zero, or one stalled client holds a connection and
// its goroutine forever.
func TestHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout != readHeaderTimeout || hs.ReadTimeout != readTimeout || hs.IdleTimeout != idleTimeout {
		t.Fatalf("timeouts header=%v read=%v idle=%v, want %v, %v, %v",
			hs.ReadHeaderTimeout, hs.ReadTimeout, hs.IdleTimeout, readHeaderTimeout, readTimeout, idleTimeout)
	}
	for name, d := range map[string]time.Duration{"header": readHeaderTimeout, "read": readTimeout, "idle": idleTimeout} {
		if d <= 0 {
			t.Errorf("%s timeout is %v; a stalled client would never be cut off", name, d)
		}
	}
}

// TestStalledHeaderCutOff drives a client that sends half a request
// header and then stalls: the server built by newHTTPServer closes the
// connection once the header timeout passes. The timeout is shortened
// here so the test runs in well under a second; TestHTTPServerTimeouts
// pins the value served in production.
func TestStalledHeaderCutOff(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	hs.ReadHeaderTimeout = 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("serve: %v", err)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /query HTTP/1.1\r\nHost: aggserve\r\nContent-Type: app"); err != nil {
		t.Fatal(err)
	}
	const patience = 5 * time.Second
	if err := conn.SetReadDeadline(time.Now().Add(patience)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = io.ReadAll(conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("server still held the stalled connection after %v", patience)
	}
	if waited := time.Since(start); waited < hs.ReadHeaderTimeout/2 {
		t.Fatalf("connection closed after %v, before the header timeout", waited)
	}
}
