package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
)

// The JSON wire helpers every daemon's routes and clients share, so a
// body limit or a per-route histogram has one place to go.

// MaxJSONBody bounds the body of every JSON route: orders of magnitude
// above any request a daemon or tool in this repository builds, small
// enough that a stray or hostile sender cannot make a daemon buffer
// without limit.
const MaxJSONBody = 1 << 20

// maxPooledBody is the largest buffer DecodeJSON hands back to its
// pool; one that grew past it served an outlier and is left to the
// collector.
const maxPooledBody = 64 << 10

var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// DecodeJSON parses the request body into out, answering with an Error
// on failure: 413 for a body over MaxJSONBody, 400 for anything that is
// not exactly one JSON value (trailing non-whitespace included). The
// body is read whole into a pooled buffer and unmarshalled from there —
// out keeps no reference into it. A *HeartbeatRequest in json.Marshal's
// form is parsed by hand (decodeCanonical); every other body, and every
// other type, goes to json.Unmarshal.
func DecodeJSON(w http.ResponseWriter, r *http.Request, out any) bool {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			buf.Reset()
			bodyPool.Put(buf)
		}
	}()
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, MaxJSONBody))
	if err == nil {
		if hb, ok := out.(*HeartbeatRequest); !ok || !hb.decodeCanonical(buf.Bytes()) {
			err = json.Unmarshal(buf.Bytes(), out)
		}
	}
	if err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		WriteError(w, code, fmt.Errorf("api: bad request body: %w", err))
		return false
	}
	return true
}

// WriteJSON answers with v as the JSON body.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError answers with the Error envelope. An ErrNotLeader keeps its
// typed form in the body; ReadError rebuilds it on the other side.
func WriteError(w http.ResponseWriter, code int, err error) {
	body := Error{Code: code, Message: err.Error()}
	var nl ErrNotLeader
	if errors.As(err, &nl) {
		body.NotLeader = &nl
	}
	WriteJSON(w, code, body)
}

// PostJSON sends body (nil for none) as a JSON POST; the reply is read
// as Do reads it.
func PostJSON(hc *http.Client, url string, body, out any) error {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("api: encoding request: %w", err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(http.MethodPost, url, rd)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return Do(hc, req, out)
}

// GetJSON fetches url; the reply is read as Do reads it.
func GetJSON(hc *http.Client, url string, out any) error {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	return Do(hc, req, out)
}

// Do sends req and decodes the JSON reply into out (nil to ignore it);
// an io.Writer out receives the reply as is. A nil client is
// http.DefaultClient; a status of 300 or above is returned as ReadError
// reads it.
func Do(hc *http.Client, req *http.Request, out any) error {
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return fmt.Errorf("api: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return ReadError(resp)
	}
	switch out := out.(type) {
	case nil:
	case io.Writer:
		if _, err := io.Copy(out, resp.Body); err != nil {
			return fmt.Errorf("api: reading response: %w", err)
		}
	default:
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return fmt.Errorf("api: decoding response: %w", err)
		}
	}
	return nil
}

// InProcess is an http.RoundTripper that serves each request with
// Handler on the caller's goroutine and hands back what it wrote: the
// same routes, body decode, status mapping and error envelope as over a
// socket, with no socket, no goroutine and no timeout, so a run on a
// simulated clock stays single-threaded and deterministic.
type InProcess struct{ Handler http.Handler }

// RoundTrip implements http.RoundTripper.
func (t InProcess) RoundTrip(req *http.Request) (*http.Response, error) {
	// A shallow copy: the mux records its route match on the request it
	// serves, and a RoundTripper must not modify the caller's.
	in := req.WithContext(req.Context())
	if in.Body == nil {
		in.Body = http.NoBody
	}
	rec := httptest.NewRecorder()
	t.Handler.ServeHTTP(rec, in)
	return rec.Result(), nil
}

// Hosts is an address book of in-process daemons: a name→handler
// switch over InProcess. Each request goes to the handler its URL's
// host names now, so a restarted coordinator or a rebooted agent keeps
// its address; a host with no handler is down, and a request to it
// fails at the transport, as to a process that is gone. The zero value
// is an empty book, safe for concurrent use.
type Hosts struct{ at sync.Map }

// Serve puts handler at host; nil takes the host down.
func (h *Hosts) Serve(host string, handler http.Handler) { h.at.Store(host, handler) }

// Handler returns what serves host now (nil: down).
func (h *Hosts) Handler(host string) http.Handler {
	v, _ := h.at.Load(host)
	handler, _ := v.(http.Handler)
	return handler
}

// RoundTrip implements http.RoundTripper.
func (h *Hosts) RoundTrip(req *http.Request) (*http.Response, error) {
	handler := h.Handler(req.URL.Host)
	if handler == nil {
		return nil, fmt.Errorf("api: %s is down", req.URL.Host)
	}
	return InProcess{Handler: handler}.RoundTrip(req)
}

// ReadError turns a non-2xx reply into the error the server wrote: the
// typed ErrNotLeader when the envelope carries one — so an agent's
// errors.As sees a fenced replica and rotates to its next endpoint — the
// Error otherwise.
func ReadError(resp *http.Response) error {
	var apiErr Error
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err == nil && apiErr.Message != "" {
		if apiErr.NotLeader != nil {
			return *apiErr.NotLeader
		}
		return apiErr
	}
	return fmt.Errorf("api: HTTP %d", resp.StatusCode)
}
