package api

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
	"time"

	"gpunion/internal/gpu"
)

func mustMarshal(tb testing.TB, v any) []byte {
	tb.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// heartbeatBody is one entry of the seed corpus of FuzzDecodeHeartbeat
// and of the table of TestDecodeCanonical: canonical reports whether the
// hand parse must take the body (json.Marshal's form) or leave it to
// json.Unmarshal.
type heartbeatBody struct {
	name      string
	body      []byte
	canonical bool
}

func heartbeatBodies(tb testing.TB) []heartbeatBody {
	idle := HeartbeatRequest{
		Envelope:  Envelope{ProtocolVersion: ProtocolVersion, LeaderEpoch: 3},
		MachineID: "node-0042", Token: "eyJzdWIiOiJub2RlLTAwNDIifQ.c2lnbmF0dXJl", BeatSeq: 17,
	}
	busy := idle
	busy.Telemetry = []gpu.Telemetry{
		{DeviceID: "gpu0", Model: "RTX 3090", Utilization: 0.6046602879796196, UsedMemMiB: 14858,
			TotalMemMiB: 24576, TemperatureC: 58.13980863938859, PowerW: 220.93205759592392, Allocated: true},
		{DeviceID: "gpu1", Model: "RTX 3090", TotalMemMiB: 24576, TemperatureC: 40, PowerW: 100},
	}
	busy.RunningJobs, busy.Paused = []string{"job-000001"}, true
	empty := idle
	empty.Telemetry, empty.RunningJobs = []gpu.Telemetry{}, []string{}
	sick := idle
	sick.HealthEvents = []gpu.HealthEvent{{Kind: gpu.HealthThermal, Severity: gpu.SeverityWarn,
		DeviceID: "gpu0", Value: 91.5, At: time.Date(2025, 9, 1, 0, 4, 30, 0, time.UTC)}}
	idleRaw := mustMarshal(tb, idle)
	return []heartbeatBody{
		{"idle", idleRaw, true},
		{"telemetry, running jobs, paused", mustMarshal(tb, busy), true},
		{"zero request (nulls)", mustMarshal(tb, HeartbeatRequest{}), true},
		{"empty arrays", mustMarshal(tb, empty), true},
		{"encoder newline", append(bytes.Clone(idleRaw), '\n'), true},
		{"empty object", []byte(`{}`), true},
		{"exponent floats, -0", []byte(`{"telemetry":[{"utilization":1e-07,"power_w":1.5E+3,"temperature_c":-0}]}`), true},
		{"-0 into an int", []byte(`{"protocol_version":-0}`), true},
		{"2^64-1", []byte(`{"beat_seq":18446744073709551615}`), true},
		{"reordered keys", []byte(`{"beat_seq":1,"machine_id":"n1"}`), true},
		{"health events", mustMarshal(tb, sick), false},
		{"escaped string", []byte(`{"machine_id":"\u006eode-0042"}`), false},
		{"upper-cased key", []byte(`{"MACHINE_ID":"node-0042"}`), false},
		{"unknown key", []byte(`{"machine_id":"n1","extra":1}`), false},
		{"non-ASCII", []byte(`{"machine_id":"nöde"}`), false},
		{"garbage tail", append(bytes.Clone(idleRaw), " }x"...), false},
		{"leading whitespace", append([]byte(" "), idleRaw...), false},
		{"truncated", idleRaw[:len(idleRaw)-1], false},
		{"2^64", []byte(`{"beat_seq":18446744073709551616}`), false},
		{"-0 into a uint", []byte(`{"beat_seq":-0}`), false},
		{"fraction into an int", []byte(`{"protocol_version":2.0}`), false},
		{"exponent into an int", []byte(`{"beat_seq":1e3}`), false},
		{"leading zero", []byte(`{"beat_seq":01}`), false},
		{"float overflow", []byte(`{"telemetry":[{"power_w":1e400}]}`), false},
		{"string for a number", []byte(`{"beat_seq":"1"}`), false},
		{"null for a string", []byte(`{"machine_id":null}`), false},
		{"null element", []byte(`{"telemetry":[null]}`), false},
		{"trailing comma", []byte(`{"telemetry":[{"device_id":"gpu0",}]}`), false},
		{"repeated telemetry", []byte(`{"telemetry":[{"model":"a","power_w":1}],"telemetry":[{"model":"b"}]}`), false},
	}
}

// TestDecodeCanonical: the hand parse takes exactly json.Marshal's form,
// gives json.Unmarshal's result for it — into a target that already
// holds scalars too, whose fields the body does not name are kept — and
// leaves the target untouched on everything else.
func TestDecodeCanonical(t *testing.T) {
	prior := HeartbeatRequest{Envelope: Envelope{ProtocolVersion: 1, LeaderEpoch: 9},
		MachineID: "before", Token: "before", Paused: true, BeatSeq: 99}
	for _, c := range heartbeatBodies(t) {
		for _, start := range []HeartbeatRequest{{}, prior} {
			fast, ref := start, start
			if got := fast.decodeCanonical(c.body); got != c.canonical {
				t.Errorf("%s: decodeCanonical = %v, want %v", c.name, got, c.canonical)
			}
			if !c.canonical {
				if !reflect.DeepEqual(fast, start) {
					t.Errorf("%s: a refused body changed the target: %+v", c.name, fast)
				}
				continue
			}
			if err := json.Unmarshal(c.body, &ref); err != nil || !reflect.DeepEqual(fast, ref) {
				t.Errorf("%s: hand parse %+v, json.Unmarshal %+v (%v)", c.name, fast, ref, err)
			}
		}
	}
	held := HeartbeatRequest{RunningJobs: []string{"job-1"}}
	if held.decodeCanonical([]byte(`{}`)) {
		t.Error("a target with a slice already set was parsed by hand; json.Unmarshal decodes into it in place")
	}
}

// FuzzDecodeHeartbeat holds the hand parse to encoding/json: whatever it
// accepts, json.Unmarshal accepts too and decodes to a deeply equal
// request, none of whose strings point into the body; whatever it
// refuses, it leaves the target as it found it.
func FuzzDecodeHeartbeat(f *testing.F) {
	for _, c := range heartbeatBodies(f) {
		f.Add(c.body)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		body := bytes.Clone(data)
		var fast HeartbeatRequest
		if !fast.decodeCanonical(body) {
			if !reflect.DeepEqual(fast, HeartbeatRequest{}) {
				t.Fatalf("refused %q but changed the target: %+v", data, fast)
			}
			return
		}
		clear(body)
		var ref HeartbeatRequest
		if err := json.Unmarshal(data, &ref); err != nil {
			t.Fatalf("accepted %q, which json.Unmarshal refuses: %v", data, err)
		}
		if !reflect.DeepEqual(fast, ref) {
			t.Fatalf("diverged on %q:\nhand %+v\njson %+v", data, fast, ref)
		}
	})
}

// TestMarshalledHeartbeatsAreCanonical: json.Marshal of any heartbeat
// without health events, whose IDs are printable ASCII that json.Marshal
// does not escape (not " \ < > &), takes the hand parse and comes back
// deeply equal. Every sender in this repository — core.Client, which
// cmd/agent beats a coordinator or a relay with, and bench/'s fleet —
// marshals its beat so, with node-<hash> machine IDs and
// base64url.signature tokens.
func TestMarshalledHeartbeatsAreCanonical(t *testing.T) {
	var chars []byte
	for c := byte(' '); c <= '~'; c++ {
		if !strings.ContainsRune(`"\<>&`, rune(c)) {
			chars = append(chars, c)
		}
	}
	rng := rand.New(rand.NewPCG(26, 1))
	id := func() string {
		b := make([]byte, rng.IntN(48))
		for i := range b {
			b[i] = chars[rng.IntN(len(chars))]
		}
		return string(b)
	}
	special := []float64{0, math.Copysign(0, -1), 1e-7, 0.1, 55.5, 1e21, -1e-300,
		math.MaxFloat64, math.SmallestNonzeroFloat64}
	float := func() float64 {
		if rng.IntN(3) == 0 {
			return special[rng.IntN(len(special))]
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.IntN(12)-4))
	}
	for i := 0; i < 5000; i++ {
		in := HeartbeatRequest{
			Envelope:  Envelope{ProtocolVersion: rng.IntN(5) - 2, LeaderEpoch: rng.Uint64() >> rng.IntN(64)},
			MachineID: id(), Token: id(), Paused: rng.IntN(2) == 0, BeatSeq: rng.Uint64() >> rng.IntN(64),
		}
		if n := rng.IntN(5) - 1; n >= 0 { // -1: nil
			in.Telemetry = make([]gpu.Telemetry, n)
			for d := range in.Telemetry {
				in.Telemetry[d] = gpu.Telemetry{DeviceID: id(), Model: id(), Utilization: float(),
					UsedMemMiB: rng.Int64() >> rng.IntN(64), TotalMemMiB: -rng.Int64N(1 << 40),
					TemperatureC: float(), PowerW: float(), Allocated: rng.IntN(2) == 0}
			}
		}
		if n := rng.IntN(5) - 1; n >= 0 {
			in.RunningJobs = make([]string, n)
			for j := range in.RunningJobs {
				in.RunningJobs[j] = id()
			}
		}
		raw := mustMarshal(t, in)
		var out HeartbeatRequest
		if !out.decodeCanonical(raw) {
			t.Fatalf("json.Marshal output refused: %s", raw)
		}
		if !reflect.DeepEqual(out, in) {
			t.Fatalf("round trip diverged on %s:\n in %+v\nout %+v", raw, in, out)
		}
	}
}
