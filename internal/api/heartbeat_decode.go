package api

import (
	"bytes"
	"strconv"

	"gpunion/internal/gpu"
)

// decodeCanonical parses data into h without reflection if data is a
// HeartbeatRequest in json.Marshal's form — what every sender in this
// repository puts on the wire, every interval:
//   - keys spelled exactly as tagged (health_events is refused: it is rare
//     and time-typed);
//   - strings of printable ASCII without escapes, copied out of data;
//   - numbers in JSON's grammar, read with strconv as encoding/json reads
//     them (integers only for the integer fields);
//   - true or false; null (a nil slice) or an array (a non-nil one, empty
//     for []) for telemetry and running_jobs;
//   - whitespace only after the closing brace.
//
// On anything else it returns false and leaves h untouched, and
// DecodeJSON hands the body to json.Unmarshal — the reference
// FuzzDecodeHeartbeat holds this parse to. A target whose slices are
// already set is refused too: json.Unmarshal decodes into those in place.
func (h *HeartbeatRequest) decodeCanonical(data []byte) bool {
	if h.Telemetry != nil || h.RunningJobs != nil || h.HealthEvents != nil {
		return false
	}
	d, v := canonical{data: data}, *h
	ok := d.object(func(key []byte) bool {
		var ok bool
		switch string(key) {
		case "protocol_version":
			var n int64
			n, ok = d.int(strconv.IntSize)
			v.ProtocolVersion = int(n)
		case "leader_epoch":
			v.LeaderEpoch, ok = d.uint()
		case "machine_id":
			v.MachineID, ok = d.text()
		case "token":
			v.Token, ok = d.text()
		case "telemetry":
			if v.Telemetry != nil {
				return false // json.Unmarshal would merge a repeat into the first array's elements
			}
			v.Telemetry, ok = list(&d, d.telemetry)
		case "running_jobs":
			v.RunningJobs, ok = list(&d, func(job *string) (ok bool) {
				*job, ok = d.text()
				return ok
			})
		case "paused":
			v.Paused, ok = d.bool()
		case "beat_seq":
			v.BeatSeq, ok = d.uint()
		}
		return ok
	}) && d.end()
	if ok {
		*h = v
	}
	return ok
}

// telemetry parses one gpu.Telemetry object into t.
func (d *canonical) telemetry(t *gpu.Telemetry) bool {
	return d.object(func(key []byte) bool {
		var ok bool
		switch string(key) {
		case "device_id":
			t.DeviceID, ok = d.text()
		case "model":
			t.Model, ok = d.text()
		case "utilization":
			t.Utilization, ok = d.float()
		case "used_mem_mib":
			t.UsedMemMiB, ok = d.int(64)
		case "total_mem_mib":
			t.TotalMemMiB, ok = d.int(64)
		case "temperature_c":
			t.TemperatureC, ok = d.float()
		case "power_w":
			t.PowerW, ok = d.float()
		case "allocated":
			t.Allocated, ok = d.bool()
		}
		return ok
	})
}

// canonical is a cursor over a body in json.Marshal's form. Every method
// consumes one token and reports whether it was the expected one.
type canonical struct {
	data []byte
	i    int
}

// object parses {"key":value,...}, handing each key to field, which
// parses the value.
func (d *canonical) object(field func(key []byte) bool) bool {
	if !d.skip('{') {
		return false
	}
	for first := true; !d.skip('}'); first = false {
		if !first && !d.skip(',') {
			return false
		}
		key, ok := d.str()
		if !ok || !d.skip(':') || !field(key) {
			return false
		}
	}
	return true
}

// list parses null (a nil slice) or [value,...] (a non-nil one, empty
// for []), handing each new element to elem, which parses the value.
func list[T any](d *canonical, elem func(*T) bool) ([]T, bool) {
	if d.word("null") {
		return nil, true
	}
	if !d.skip('[') {
		return nil, false
	}
	out := []T{}
	for first := true; !d.skip(']'); first = false {
		if !first && !d.skip(',') {
			return nil, false
		}
		var zero T
		out = append(out, zero)
		if !elem(&out[len(out)-1]) {
			return nil, false
		}
	}
	return out, true
}

// str parses a string of printable ASCII without escapes and returns its
// contents, which still point into the body.
func (d *canonical) str() ([]byte, bool) {
	if !d.skip('"') {
		return nil, false
	}
	rest := d.data[d.i:]
	n := bytes.IndexByte(rest, '"')
	if n < 0 {
		return nil, false
	}
	for _, c := range rest[:n] {
		if c < ' ' || c > '~' || c == '\\' {
			return nil, false
		}
	}
	d.i += n + 1
	return rest[:n], true
}

// text parses a string and copies it out of the body.
func (d *canonical) text() (string, bool) {
	s, ok := d.str()
	return string(s), ok
}

// number parses a number in JSON's grammar and returns its literal, nil
// when there is none.
func (d *canonical) number() []byte {
	start := d.i
	d.skip('-')
	if !d.skip('0') && d.digits() == 0 {
		return nil
	}
	if d.skip('.') && d.digits() == 0 {
		return nil
	}
	if d.skip('e') || d.skip('E') {
		_ = d.skip('+') || d.skip('-')
		if d.digits() == 0 {
			return nil
		}
	}
	return d.data[start:d.i]
}

func (d *canonical) digits() int {
	n := 0
	for _, c := range d.data[d.i:] {
		if c < '0' || c > '9' {
			break
		}
		n++
	}
	d.i += n
	return n
}

func (d *canonical) int(bits int) (int64, bool) {
	n, err := strconv.ParseInt(string(d.number()), 10, bits)
	return n, err == nil
}

func (d *canonical) uint() (uint64, bool) {
	n, err := strconv.ParseUint(string(d.number()), 10, 64)
	return n, err == nil
}

func (d *canonical) float() (float64, bool) {
	f, err := strconv.ParseFloat(string(d.number()), 64)
	return f, err == nil
}

func (d *canonical) bool() (bool, bool) {
	switch {
	case d.word("true"):
		return true, true
	case d.word("false"):
		return false, true
	}
	return false, false
}

// skip consumes c if it comes next.
func (d *canonical) skip(c byte) bool {
	if d.i < len(d.data) && d.data[d.i] == c {
		d.i++
		return true
	}
	return false
}

// word consumes w if it comes next.
func (d *canonical) word(w string) bool {
	ok := bytes.HasPrefix(d.data[d.i:], []byte(w))
	if ok {
		d.i += len(w)
	}
	return ok
}

// end reports whether only whitespace is left.
func (d *canonical) end() bool {
	return len(bytes.TrimLeft(d.data[d.i:], " \t\n\r")) == 0
}
