package core

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"gpunion/internal/api"
	"gpunion/internal/db"
)

// TestCompatibility pins what older peers may still send or hold: the
// protocol versions Register accepts, wire keys this build no longer
// has (storage_prefs on a submit, leader_hint in a not-leader reply)
// and a job record an older build logged with storage_prefs and
// container_id.
func TestCompatibility(t *testing.T) {
	t.Run("register protocol versions", func(t *testing.T) {
		r := newHTTPRig(t)
		for i, tc := range []struct {
			version string // the protocol_version member, "" for none
			want    int
		}{
			{"", http.StatusOK},
			{`"protocol_version":0,`, http.StatusOK},
			{`"protocol_version":1,`, http.StatusOK},
			{`"protocol_version":2,`, http.StatusOK},
			{`"protocol_version":-1,`, http.StatusBadRequest},
			{`"protocol_version":3,`, http.StatusBadRequest},
		} {
			body := `{` + tc.version + `"machine_id":"n` + strconv.Itoa(i) + `","addr":"http://127.0.0.1:1","gpus":[]}`
			if got := postRaw(t, r.coordSrv.URL+"/v1/register", body); got != tc.want {
				t.Errorf("register %s = %d, want %d", body, got, tc.want)
			}
		}
	})

	t.Run("submit storage_prefs", func(t *testing.T) {
		r := newHTTPRig(t)
		var mu sync.Mutex
		var launches []string
		agentSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			raw, _ := io.ReadAll(req.Body)
			mu.Lock()
			launches = append(launches, req.URL.Path+" "+string(raw))
			mu.Unlock()
			api.WriteJSON(w, http.StatusOK, api.LaunchResponse{ContainerID: "ctr", DeviceID: "gpu0"})
		}))
		t.Cleanup(agentSrv.Close)
		if got := postRaw(t, r.coordSrv.URL+"/v1/register", `{"protocol_version":2,"machine_id":"n1",`+
			`"addr":"`+agentSrv.URL+`","gpus":[{"device_id":"gpu0","model":"RTX 3090",`+
			`"memory_mib":24576,"capability_major":8,"capability_minor":6}]}`); got != http.StatusOK {
			t.Fatalf("register = %d", got)
		}
		if got := postRaw(t, r.coordSrv.URL+"/v1/jobs", `{"user":"alice","kind":"batch",`+
			`"image_name":"pytorch/pytorch:2.3-cuda12","gpu_mem_mib":8192,"storage_prefs":["nas"]}`); got != http.StatusOK {
			t.Fatalf("submit with storage_prefs = %d, want 200", got)
		}
		mu.Lock()
		defer mu.Unlock()
		if len(launches) != 1 || !strings.HasPrefix(launches[0], "/v1/launch {") ||
			strings.Contains(launches[0], "storage_prefs") {
			t.Fatalf("agent received %q, want one launch without storage_prefs", launches)
		}
	})

	t.Run("not-leader reply with leader_hint", func(t *testing.T) {
		rec := httptest.NewRecorder()
		rec.WriteHeader(http.StatusBadRequest)
		_, _ = rec.WriteString(`{"code":400,"message":"api: not the leader (try coord-a)",` +
			`"not_leader":{"leader_hint":"coord-a","epoch":3}}`)
		var nl api.ErrNotLeader
		if err := api.ReadError(rec.Result()); !errors.As(err, &nl) || nl.Epoch != 3 {
			t.Fatalf("older coordinator's reply read as %v, want ErrNotLeader at epoch 3", err)
		}
	})

	t.Run("WAL job_put with storage_prefs and container_id", func(t *testing.T) {
		dir := t.TempDir()
		payload := []byte(`{"lsn":1,"type":"job_put","job":{"id":"job-000001","user":"alice",` +
			`"kind":"batch","state":"pending","priority":0,"gpu_mem_mib":8192,` +
			`"storage_prefs":["lab-nas","scratch"],"container_id":"ctr-job-000001",` +
			`"submitted_at":"2025-09-01T08:00:00Z",` +
			`"image_name":"pytorch/pytorch:2.3-cuda12"}}`)
		// One record in the log's framing: length, CRC-32C, payload.
		frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
		frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
		if err := os.WriteFile(filepath.Join(dir, "wal-00000001.log"), append(frame, payload...), 0o644); err != nil {
			t.Fatal(err)
		}
		rep := newReplicaRig(t).open("", dir, "", nil)
		rep.Start()
		job, err := rep.Store().GetJob("job-000001")
		if err != nil || job.State != db.JobPending || job.ImageName != "pytorch/pytorch:2.3-cuda12" {
			t.Fatalf("recovered job = %+v, %v; want job-000001 pending with its image", job, err)
		}
	})
}

// postRaw posts body as JSON and returns the reply's status.
func postRaw(t *testing.T, url, body string) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}
