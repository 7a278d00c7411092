package api

import (
	"io"
	"net/http"
	"testing"
)

// answering serves every request with body.
func answering(body string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { _, _ = io.WriteString(w, body) })
}

// TestHostsRoutesToWhatServesNow: a request to a host nobody serves, or
// one taken down, fails at the transport; once the host is served again
// the next request reaches the new handler, not the old one. A
// coordinator restarted at its address and an agent rebooted under its
// machine ID rely on this.
func TestHostsRoutesToWhatServesNow(t *testing.T) {
	hosts := &Hosts{}
	client := &http.Client{Transport: hosts}
	get := func() (string, error) {
		resp, err := client.Get("http://coordinator/v1/status")
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return string(b), err
	}

	if _, err := get(); err == nil {
		t.Fatal("a request to a host with no handler succeeded")
	}
	hosts.Serve("coordinator", answering("first"))
	hosts.Serve("node-1", answering("agent"))
	if got, err := get(); err != nil || got != "first" {
		t.Fatalf("served host answered %q, %v; want first", got, err)
	}

	hosts.Serve("coordinator", nil)
	if _, err := get(); err == nil {
		t.Fatal("a request to a host taken down succeeded")
	}
	hosts.Serve("coordinator", answering("second"))
	if got, err := get(); err != nil || got != "second" {
		t.Fatalf("re-served host answered %q, %v; want second", got, err)
	}
	if hosts.Handler("node-1") == nil || hosts.Handler("node-2") != nil {
		t.Fatal("Handler does not report what serves each host")
	}
}
