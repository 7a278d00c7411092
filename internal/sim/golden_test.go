package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"gpunion/internal/chaos"
	"gpunion/internal/obs"
)

// Golden traces: testdata/golden_traces.json pins, for every canned
// chaos schedule at goldenSeed, the counters the run already exports
// and a digest of its flight-recorder export, plus the scripted
// failover and crash-recovery results. The simulations are
// single-driver and the store's shard hash is a pure function, so a
// fresh process must reproduce the file byte for byte; a refactor is
// "same behaviour" when this file does not move, and a deliberate
// behaviour change regenerates it and quotes the diff.
//
// Regenerate with:
//
//	go test ./internal/sim -run 'TestGolden|TestChaosTraceDeterminism|TestFailoverLeaderHandoff|TestCrashRecovery$' -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_traces.json from this run")

const (
	goldenSeed = 42
	goldenPath = "testdata/golden_traces.json"
	// chainRow is how many events one line of a trace's digest chain
	// covers (two hex characters each).
	chainRow = 32
)

// goldenTrace is one chaos run's pinned fingerprint.
type goldenTrace struct {
	Faults                  map[chaos.Kind]int `json:"faults"`
	Audits                  int                `json:"audits"`
	Submitted               int                `json:"submitted"`
	Completed               int                `json:"completed"`
	Recoveries              int                `json:"recoveries"`
	Failovers               int                `json:"failovers"`
	WALFaults               int                `json:"wal_faults"`
	CkptFaults              int                `json:"ckpt_faults"`
	CkptCorruptionsDetected int                `json:"ckpt_corruptions_detected"`
	CkptReadFaults          int                `json:"ckpt_read_faults"`
	DupReplays              map[string]int     `json:"dup_replays"`
	Violations              int                `json:"violations"`
	Events                  int                `json:"events"`
	Dropped                 uint64             `json:"dropped"`
	// TraceSHA256 digests the obs.Export JSON of the whole trace.
	TraceSHA256 string `json:"trace_sha256"`
	// Chain holds one byte per event of a running digest (event i's
	// entry covers events 0..i), chainRow events per line, so drift can
	// be localized to the first event that differs — and shows in the
	// file's own diff from that line on — without committing the trace.
	Chain []string `json:"chain"`
}

func fingerprint(t *testing.T, res ChaosResult) goldenTrace {
	t.Helper()
	raw, err := json.Marshal(obs.Export{Events: res.Trace, Dropped: res.TraceDropped})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	g := goldenTrace{
		Faults: res.Report.Executed, Audits: res.Report.Audits,
		Submitted: res.SubmittedJobs, Completed: res.CompletedJobs,
		Recoveries: res.Recoveries, Failovers: res.Failovers,
		WALFaults:  res.WALFaultsInjected,
		CkptFaults: res.CkptFaultsInjected, CkptCorruptionsDetected: res.CkptCorruptionsDetected,
		CkptReadFaults: res.CkptReadFaultsInjected, DupReplays: res.DupReplaysDelivered,
		Violations: len(res.Violations), Events: len(res.Trace), Dropped: res.TraceDropped,
		TraceSHA256: hex.EncodeToString(sum[:]),
	}
	var link [sha256.Size]byte
	var row strings.Builder
	for i, ev := range res.Trace {
		evJSON, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		link = sha256.Sum256(append(link[:], evJSON...))
		row.WriteString(hex.EncodeToString(link[:1]))
		if (i+1)%chainRow == 0 || i == len(res.Trace)-1 {
			g.Chain = append(g.Chain, row.String())
			row.Reset()
		}
	}
	return g
}

func readGolden(t *testing.T) map[string]json.RawMessage {
	t.Helper()
	entries := make(map[string]json.RawMessage)
	raw, err := os.ReadFile(goldenPath)
	if os.IsNotExist(err) && *updateGolden {
		return entries
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &entries); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	return entries
}

// checkGolden compares got's JSON with the committed entry named key
// (or installs it under -update-golden) and reports whether it
// drifted, listing every top-level field that moved. The committed
// entry is returned for callers that can say more.
func checkGolden(t *testing.T, key string, got any) (want json.RawMessage, drifted bool) {
	t.Helper()
	gotJSON, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	entries := readGolden(t)
	if *updateGolden {
		entries[key] = gotJSON
		out, err := json.MarshalIndent(entries, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return gotJSON, false
	}
	want, ok := entries[key]
	if !ok {
		t.Errorf("%s has no entry %q; regenerate with -update-golden", goldenPath, key)
		return nil, true
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, want); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(compact.Bytes(), gotJSON) {
		return want, false
	}
	var wantFields, gotFields map[string]any
	if err := json.Unmarshal(want, &wantFields); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(gotJSON, &gotFields); err != nil {
		t.Fatal(err)
	}
	for k := range wantFields {
		if _, ok := gotFields[k]; !ok {
			gotFields[k] = nil
		}
	}
	fields := make([]string, 0, len(gotFields))
	for k := range gotFields {
		fields = append(fields, k)
	}
	sort.Strings(fields)
	for _, k := range fields {
		if k != "chain" && !reflect.DeepEqual(wantFields[k], gotFields[k]) {
			t.Errorf("%s drifted from %s: %s = %v, committed %v", key, goldenPath, k, gotFields[k], wantFields[k])
		}
	}
	t.Errorf("%s: behaviour changed; if that is the point of the change, regenerate with -update-golden and quote the diff", key)
	return want, true
}

// checkGoldenTrace is checkGolden for a chaos run; on drift it also
// names the first event whose running digest left the committed chain
// (never earlier than the first differing event, and that very event
// 255 times in 256).
func checkGoldenTrace(t *testing.T, key string, res ChaosResult) {
	t.Helper()
	got := fingerprint(t, res)
	wantRaw, drifted := checkGolden(t, key, got)
	if !drifted || wantRaw == nil {
		return
	}
	var want goldenTrace
	if err := json.Unmarshal(wantRaw, &want); err != nil {
		t.Fatal(err)
	}
	wantChain, gotChain := strings.Join(want.Chain, ""), strings.Join(got.Chain, "")
	i := 0
	for 2*i+2 <= len(wantChain) && 2*i+2 <= len(gotChain) && wantChain[2*i:2*i+2] == gotChain[2*i:2*i+2] {
		i++
	}
	switch {
	case i < len(res.Trace):
		ev, _ := json.Marshal(res.Trace[i])
		t.Errorf("%s: first differing event is #%d of %d (committed trace has %d): %s", key, i, len(res.Trace), want.Events, ev)
	case i < want.Events:
		t.Errorf("%s: trace ends after event #%d; the committed one has %d events", key, i-1, want.Events)
	}
}

// scheduleRuns memoises the canned schedules at goldenSeed for the
// life of the test process: the TestChaos* lanes and
// TestGoldenChaosTraces read the same (read-only) result instead of
// each simulating the same campus day.
var scheduleRuns = map[string]struct {
	res ChaosResult
	err error
}{}

func runGoldenSchedule(name string) (ChaosResult, error) {
	run, ok := scheduleRuns[name]
	if !ok {
		run.res, run.err = RunChaosSchedule(name, goldenSeed)
		scheduleRuns[name] = run
	}
	return run.res, run.err
}

// TestGoldenChaosTraces: every canned schedule reproduces its committed
// fingerprint in this process, and the file pins exactly the schedules
// that exist.
func TestGoldenChaosTraces(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all ten chaos schedules")
	}
	known := map[string]bool{}
	for _, sc := range ChaosSchedules {
		known["chaos/"+sc.Name] = true
		t.Run(sc.Name, func(t *testing.T) {
			res, err := runGoldenSchedule(sc.Name)
			if err != nil {
				t.Fatal(err)
			}
			checkGoldenTrace(t, "chaos/"+sc.Name, res)
		})
	}
	for key := range readGolden(t) {
		if strings.HasPrefix(key, "chaos/") && !known[key] {
			t.Errorf("%s pins %q, which is not in sim.ChaosSchedules", goldenPath, key)
		}
	}
}
