package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestStalledHeaderDisconnected pins the slow-client defence: a client that
// sends half a request header and then stalls is disconnected once
// readHeaderTimeout passes, instead of holding its connection open forever.
func TestStalledHeaderDisconnected(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := newHTTPServer(ln.Addr().String(), http.NotFoundHandler())
	go hs.Serve(ln)
	defer hs.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: localhost\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(readHeaderTimeout + 10*time.Second))
	_, err = conn.Read(make([]byte, 1))
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection still open %v after a stalled header", time.Since(start))
	}
	if err == nil {
		t.Fatal("server answered an incomplete request header")
	}
	if waited := time.Since(start); waited < readHeaderTimeout/2 {
		t.Fatalf("disconnected after %v, before readHeaderTimeout %v", waited, readHeaderTimeout)
	}
}
