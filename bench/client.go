package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"gpunion/internal/api"
)

// conn is one keep-alive HTTP/1.1 connection driven by one goroutine:
// exactly one request is in flight on it at a time, which is the
// benchmark's definition of a client. Requests are written and
// responses parsed by hand into reused buffers: the load generator
// shares a two-core host with the daemons it measures, and net/http's
// client would cost as much CPU per beat as the coordinator's handler.
type conn struct {
	host string // 127.0.0.1:P
	c    net.Conn
	r    *bufio.Reader
	out  bytes.Buffer // the request being written
	in   []byte       // the body of the last response
	// requests answered and the time spent waiting for the answers; the
	// traced run compares them with decorators on and off.
	answered atomic.Int64
	waited   atomic.Int64
}

// dial records the target; the socket opens on first use and reopens
// after any error (a killed daemon leaves a dead socket behind).
func dial(url string) *conn {
	return &conn{host: strings.TrimPrefix(url, "http://")}
}

func (c *conn) close() {
	if c.c != nil {
		_ = c.c.Close()
		c.c, c.r = nil, nil
	}
}

// retarget points the connection at another daemon.
func (c *conn) retarget(url string) {
	if host := strings.TrimPrefix(url, "http://"); host != c.host {
		c.close()
		c.host = host
	}
}

// opTimeout bounds one request on the wire; every per-operation limit
// the metrics apply is shorter.
const opTimeout = 10 * time.Second

// do sends one request and returns the status and body; the body is
// valid until the next call. A transport error closes the connection, so
// the next call redials.
func (c *conn) do(method, path string, body []byte) (int, []byte, error) {
	if c.c == nil {
		nc, err := net.DialTimeout("tcp", c.host, time.Second)
		if err != nil {
			return 0, nil, err
		}
		c.c, c.r = nc, bufio.NewReaderSize(nc, 64<<10)
	}
	c.out.Reset()
	c.out.WriteString(method)
	c.out.WriteByte(' ')
	c.out.WriteString(path)
	c.out.WriteString(" HTTP/1.1\r\nHost: ")
	c.out.WriteString(c.host)
	if body != nil {
		c.out.WriteString("\r\nContent-Type: application/json\r\nContent-Length: ")
		c.out.WriteString(strconv.Itoa(len(body)))
	}
	c.out.WriteString("\r\n\r\n")
	c.out.Write(body)
	sent := time.Now()
	_ = c.c.SetDeadline(sent.Add(opTimeout))
	if _, err := c.c.Write(c.out.Bytes()); err != nil {
		c.close()
		return 0, nil, err
	}
	status, closing, err := c.readResponse()
	if err != nil || closing {
		c.close()
	}
	if err != nil {
		return 0, nil, err
	}
	c.answered.Add(1)
	c.waited.Add(int64(time.Since(sent)))
	return status, c.in, nil
}

// readResponse parses one HTTP/1.1 response into c.in (valid until the
// next request). It understands what Go's server sends on a keep-alive
// connection: a Content-Length body, a chunked body, or none.
func (c *conn) readResponse() (status int, closing bool, err error) {
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return 0, false, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, false, fmt.Errorf("malformed status line %q", line)
	}
	if status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return 0, false, fmt.Errorf("malformed status line %q", line)
	}
	length, chunked := -1, false
	for {
		if line, err = c.r.ReadSlice('\n'); err != nil {
			return 0, false, err
		}
		if len(line) <= 2 {
			break
		}
		name, value, _ := bytes.Cut(bytes.TrimRight(line, "\r\n"), []byte(":"))
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(value)); err != nil {
				return 0, false, fmt.Errorf("malformed Content-Length %q", value)
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(value, []byte("chunked"))
		case bytes.EqualFold(name, []byte("Connection")):
			closing = bytes.EqualFold(value, []byte("close"))
		}
	}
	c.in = c.in[:0]
	switch {
	case chunked:
		for {
			if line, err = c.r.ReadSlice('\n'); err != nil {
				return 0, false, err
			}
			size, perr := strconv.ParseUint(string(bytes.TrimRight(line, "\r\n")), 16, 31)
			if perr != nil {
				return 0, false, fmt.Errorf("malformed chunk size %q", line)
			}
			if err = c.readBody(int(size) + 2); err != nil { // data and its CRLF
				return 0, false, err
			}
			c.in = c.in[:len(c.in)-2]
			if size == 0 {
				return status, closing, nil
			}
		}
	case length > 0:
		err = c.readBody(length)
	}
	return status, closing, err
}

// readBody appends exactly n bytes of the stream to c.in.
func (c *conn) readBody(n int) error {
	at := len(c.in)
	c.in = slices.Grow(c.in, n)[:at+n]
	_, err := io.ReadFull(c.r, c.in[at:])
	return err
}

// call posts (or, with a nil request, gets) JSON and decodes the reply
// into out when the status is 2xx. Any other status is an error that
// carries the coordinator's message.
func (c *conn) call(method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	status, raw, err := c.do(method, path, body)
	if err != nil {
		return err
	}
	if status >= 300 {
		var apiErr api.Error
		if json.Unmarshal(raw, &apiErr) == nil && apiErr.Message != "" {
			return statusError{status, apiErr.Message}
		}
		return statusError{status, http.StatusText(status)}
	}
	if out != nil {
		return json.Unmarshal(raw, out)
	}
	return nil
}

// statusError is a reply the daemon sent on purpose: refused, not lost.
type statusError struct {
	status int
	msg    string
}

func (e statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.status, e.msg) }

// refused reports whether err is a deliberate non-2xx reply rather than
// a transport failure.
func refused(err error) bool {
	var se statusError
	return errors.As(err, &se)
}

func (c *conn) register(n *node) error {
	var resp api.RegisterResponse
	if err := c.call("POST", "/v1/register", n.registerRequest(), &resp); err != nil {
		return fmt.Errorf("registering %s: %w", n.id, err)
	}
	n.registered(resp)
	return nil
}

// heartbeat sends the node's next beat and returns the reply.
func (c *conn) heartbeat(n *node, telemetry bool) (api.HeartbeatResponse, error) {
	var resp api.HeartbeatResponse
	err := c.call("POST", "/v1/heartbeat", n.beat(telemetry), &resp)
	if err == nil {
		n.observe(resp.LeaderEpoch)
	}
	return resp, err
}

func (c *conn) submit(req api.SubmitJobRequest) (string, error) {
	var resp api.SubmitJobResponse
	err := c.call("POST", "/v1/jobs", req, &resp)
	return resp.JobID, err
}

func (c *conn) jobStatus(id string) (api.JobStatus, error) {
	var st api.JobStatus
	err := c.call("GET", "/v1/jobs/"+id, nil, &st)
	return st, err
}

func (c *conn) nodes() ([]api.NodeSummary, error) {
	var out []api.NodeSummary
	err := c.call("GET", "/v1/nodes", nil, &out)
	return out, err
}

func (c *conn) jobs() ([]api.JobStatus, error) {
	var out []api.JobStatus
	err := c.call("GET", "/v1/jobs", nil, &out)
	return out, err
}

// metricsText scrapes the Prometheus exposition.
func (c *conn) metricsText() (string, error) {
	status, raw, err := c.do("GET", "/v1/metrics", nil)
	if err == nil && status != http.StatusOK {
		err = statusError{status, "scraping /v1/metrics"}
	}
	return string(raw), err
}
