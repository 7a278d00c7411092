package sim

import (
	"maps"
	"strconv"
	"testing"
	"time"

	"gpunion/internal/api"
	"gpunion/internal/checkpoint"
	"gpunion/internal/db"
	"gpunion/internal/gpu"
	"gpunion/internal/netsim"
	"gpunion/internal/obs"
	"gpunion/internal/scheduler"
	"gpunion/internal/workload"
)

// A restore is paid where the job runs: the target agent resolves the
// chain through its ckptPath and, with a LAN attached, fetches it from
// the store's machine as a migration flow. These tests pin what that
// costs and what may happen while the bytes are on the wire.

// lanWorld is a world whose LAN attaches the named nodes.
func lanWorld(nodes ...string) *World {
	w := NewWorld(Epoch)
	w.attachLAN(oneGPU(nodes...))
	return w
}

// oneGPU defines one RTX 3090 node per ID.
func oneGPU(ids ...string) []NodeDef {
	defs := make([]NodeDef, len(ids))
	for i, id := range ids {
		defs[i] = NodeDef{ID: id, GPUs: []gpu.Spec{gpu.RTX3090}}
	}
	return defs
}

// saveChain stores a full checkpoint of fullBytes at the first step and
// an increment of a tenth of that on the one before at each later step.
func saveChain(t *testing.T, ckpts *checkpoint.Store, jobID string, fullBytes int64, steps ...int64) {
	t.Helper()
	for i, step := range steps {
		ck := checkpoint.Checkpoint{
			JobID: jobID, Seq: i + 1, Bytes: fullBytes,
			Progress: checkpoint.Progress{Step: step}, Mechanism: "alc", CreatedAt: Epoch,
		}
		if i > 0 {
			ck.Incremental, ck.BaseSeq, ck.Bytes = true, i, fullBytes/10
		}
		if err := ckpts.Save(ck); err != nil {
			t.Fatal(err)
		}
	}
}

// fetch resolves jobID's chain on path and fetches it.
func fetch(t *testing.T, path ckptPath, jobID string) time.Duration {
	t.Helper()
	chain, err := path.RestoreChain(jobID)
	if err != nil {
		t.Fatal(err)
	}
	return path.Fetch(chain)
}

// TestRestoreChargesChainBytes: a restore moves the whole chain — the
// full snapshot and every increment on it — and resumes at its head.
func TestRestoreChargesChainBytes(t *testing.T) {
	w := lanWorld("n1")
	saveChain(t, w.Ckpts, "j1", 1_000_000_000, 100, 200, 300)
	path := ckptPath{w: w, node: "n1"}
	chain, err := path.RestoreChain("j1")
	if err != nil {
		t.Fatal(err)
	}
	if head := chain[len(chain)-1]; head.Progress.Step != 300 {
		t.Fatalf("restore resumes at step %d, want the head's 300", head.Progress.Step)
	}
	w.Clock.Advance(path.Fetch(chain))
	want := int64(1_000_000_000 + 100_000_000 + 100_000_000) // full + two increments
	if got := w.Net.Accountant().TotalBytes(netsim.TrafficMigration); got != want {
		t.Fatalf("migration traffic = %d bytes, want the chain's %d", got, want)
	}
}

// TestRestoreTimeFollowsLAN: the restore takes as long as the LAN
// model says the chain needs, and its bytes count once they have
// arrived.
func TestRestoreTimeFollowsLAN(t *testing.T) {
	w := lanWorld("n1")
	saveChain(t, w.Ckpts, "j1", 1_000_000_000, 500)
	d := fetch(t, ckptPath{w: w, node: "n1"}, "j1")
	// 1 GB over n1's 1 Gbps access link ≈ 8 s.
	if d < 7*time.Second || d > 10*time.Second {
		t.Fatalf("restore took %v, want ≈8 s", d)
	}
	acct := w.Net.Accountant()
	if got := acct.TotalBytes(netsim.TrafficMigration); got != 0 {
		t.Fatalf("%d bytes accounted before they arrived", got)
	}
	w.Clock.Advance(d)
	if got := acct.TotalBytes(netsim.TrafficMigration); got != 1_000_000_000 {
		t.Fatalf("migration traffic = %d bytes, want the chain's 1 GB", got)
	}
}

// TestRestoresOfOneEventShareLink: two restores into one node at one
// instant share its downlink, so the second takes about twice as long
// as one alone; once both have arrived, no flow is left on the link.
func TestRestoresOfOneEventShareLink(t *testing.T) {
	w := lanWorld("n1")
	path := ckptPath{w: w, node: "n1"}
	saveChain(t, w.Ckpts, "j1", 1_000_000_000, 100)
	saveChain(t, w.Ckpts, "j2", 1_000_000_000, 100)
	first, second := fetch(t, path, "j1"), fetch(t, path, "j2")
	solo := 8 * time.Second // 1 GB at 1 Gbps
	if first > solo+time.Second || second < time.Duration(1.5*float64(solo)) {
		t.Fatalf("restores took %v and %v, want ≈%v and ≈2× that", first, second, solo)
	}
	w.Clock.Advance(second)
	f, err := w.Net.StartFlow(lanStorage, "n1", 1, netsim.TrafficCheckpoint, w.Clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	if f.Rate != netsim.Gbps {
		t.Fatalf("flows leaked: a fresh flow into n1 got %v, want the whole 1 Gbps", f.Rate)
	}
}

// lanCampus is a campus on the LAN model whose agents beat every 10 s
// and step every second.
func lanCampus(t *testing.T, strategy scheduler.Strategy, defs ...NodeDef) *Campus {
	t.Helper()
	c, err := NewCampus(defs, CampusConfig{
		HeartbeatInterval: 10 * time.Second, ProgressTick: time.Second,
		WithNetwork: true, WithHealthSources: true, Strategy: strategy,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

// submitBig submits a training job with ~2 GB of state, checkpointed
// every minute, so its restore takes ≈16 s on a 1 Gbps link; it returns
// the job and the node it runs on.
func submitBig(t *testing.T, c *Campus) (id, host string) {
	t.Helper()
	spec := workload.SmallTransformer
	spec.StateBytes = 2_000_000_000
	id, err := c.Coord.SubmitJob(TrainingJobSubmission("alice", spec, time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	st, _ := c.Coord.JobStatus(id)
	if st.State != db.JobRunning {
		t.Fatalf("%s = %+v, want running", id, st)
	}
	return id, st.NodeID
}

// lastStart returns job's latest job.started event and the restore
// delay it records.
func lastStart(t *testing.T, c *Campus, job string) (obs.Event, time.Duration) {
	t.Helper()
	var ev obs.Event
	for _, e := range c.Trace.Events() {
		if e.Kind == obs.KindJobStarted && e.Job == job {
			ev = e
		}
	}
	delay, err := time.ParseDuration(ev.Detail["restore_delay"])
	if err != nil {
		t.Fatalf("job.started of %s records no restore: %v", job, ev.Detail)
	}
	return ev, delay
}

// migrations tallies the job.migrated events under their reason.
func migrations(c *Campus) map[string]int {
	out := make(map[string]int)
	for _, ev := range c.Trace.Events() {
		if ev.Kind == obs.KindJobMigrated {
			out[ev.Detail["reason"]]++
		}
	}
	return out
}

// TestRelaunchStepsAfterRestoreArrives: a displaced job runs on its
// target as soon as the departure is handled, but steps only once its
// chain has arrived.
func TestRelaunchStepsAfterRestoreArrives(t *testing.T) {
	c := lanCampus(t, nil, oneGPU("n1", "n2")...)
	id, home := submitBig(t, c)
	c.Run(2 * time.Minute) // at least one checkpoint

	c.Agents[home].Depart(api.DepartScheduled, time.Minute)
	st, _ := c.Coord.JobStatus(id)
	if st.State != db.JobRunning || st.NodeID == home {
		t.Fatalf("right after the departure: %+v, want running on the other node", st)
	}
	started, delay := lastStart(t, c, id)
	if delay < 15*time.Second {
		t.Fatalf("restore delay %v, want ≥ 16 s for a ~2 GB chain at 1 Gbps", delay)
	}
	job, _ := c.Agents[st.NodeID].RunningJob(id)
	from := job.Step()
	if want := started.Detail["restore_step"]; want == "" || want == "0" {
		t.Fatalf("job.started = %v, want a restore from a checkpoint", started.Detail)
	}
	c.Run(delay - time.Second)
	if job.Step() != from {
		t.Fatalf("the job stepped %d → %d before its chain arrived", from, job.Step())
	}
	c.Run(time.Minute)
	if job.Step() <= from {
		t.Fatal("the job did not step once its chain arrived")
	}
}

// TestMigrationDowntimeIncludesRestore: Fig. 3's ledger counts the
// restore transfer in a migrated job's downtime, and job.started
// records the bytes the LAN carried.
func TestMigrationDowntimeIncludesRestore(t *testing.T) {
	c := lanCampus(t, nil, oneGPU("n1", "n2")...)
	ledger := newMigrationLedger(func(node string) int {
		n := 0
		for _, job := range c.Coord.DB().JobsOnNode(node) {
			if job.State == db.JobRunning {
				n++
			}
		}
		return n
	})
	c.Trace.Observe(ledger.observe)
	id, home := submitBig(t, c)
	c.Run(2 * time.Minute) // at least one checkpoint

	c.Agents[home].Depart(api.DepartScheduled, time.Minute)
	started, delay := lastStart(t, c, id)
	if delay < 15*time.Second {
		t.Fatalf("restore delay %v, want ≥ 16 s for a ~2 GB chain at 1 Gbps", delay)
	}
	c.Run(delay + time.Minute)
	if rate, mean := ledger.scenario(api.DepartScheduled, fig3Deadline); rate != 1 || mean != delay {
		t.Fatalf("ledger: rate %v, downtime %v; want 1 and the restore's %v", rate, mean, delay)
	}
	if got := c.Net.Accountant().TotalBytes(netsim.TrafficMigration); started.Detail["restore_bytes"] != strconv.FormatInt(got, 10) {
		t.Fatalf("migration traffic %d bytes, job.started records %s", got, started.Detail["restore_bytes"])
	}
}

// TestStatelessRelaunchChargesNothing: a job with no checkpoint (an
// interactive session) relaunches at once and moves no bytes.
func TestStatelessRelaunchChargesNothing(t *testing.T) {
	c := lanCampus(t, nil, oneGPU("n1", "n2")...)
	id, err := c.Coord.SubmitJob(SessionSubmission("bob", workload.Session{Duration: time.Hour, GPUMemMiB: 4096}))
	if err != nil {
		t.Fatal(err)
	}
	st, _ := c.Coord.JobStatus(id)
	c.Run(time.Minute)
	c.Agents[st.NodeID].Depart(api.DepartScheduled, time.Minute)
	if moved := migrations(c); moved["scheduled"] != 1 {
		t.Fatalf("migrations %v, want one scheduled", moved)
	}
	for _, ev := range c.Trace.Events() {
		if ev.Kind == obs.KindJobStarted && ev.Detail["restore_bytes"] != "" {
			t.Fatalf("a stateless launch restored: %v", ev.Detail)
		}
	}
	c.Run(time.Minute)
	if got := c.Net.Accountant().TotalBytes(netsim.TrafficMigration); got != 0 {
		t.Fatalf("a stateless relaunch moved %d bytes", got)
	}
}

// TestKillDuringRestore: a job killed while its chain is still on the
// wire stays killed, the agent frees its device, and the flow still
// ends when its bytes have arrived.
func TestKillDuringRestore(t *testing.T) {
	c := lanCampus(t, nil, oneGPU("n1", "n2")...)
	id, home := submitBig(t, c)
	c.Run(2 * time.Minute)
	c.Agents[home].Depart(api.DepartScheduled, time.Minute)
	st, _ := c.Coord.JobStatus(id)
	target := st.NodeID

	if err := c.Coord.KillJob(id); err != nil {
		t.Fatal(err)
	}
	c.Run(time.Minute) // the chain lands after the kill
	if st, _ := c.Coord.JobStatus(id); st.State != db.JobKilled {
		t.Fatalf("state = %s, want killed", st.State)
	}
	if jobs := c.Agents[target].Status().RunningJobs; len(jobs) != 0 {
		t.Fatalf("%s still runs %v", target, jobs)
	}
	f, err := c.Net.StartFlow(lanStorage, target, 1, netsim.TrafficCheckpoint, c.Clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	if f.Rate != netsim.Gbps {
		t.Fatalf("the killed job's restore flow never ended: a fresh flow got %v", f.Rate)
	}
}

// TestDrainedNodeDepartsDuringRestore: a node draining predictively
// departs while its job's chain is still crossing the LAN. The job
// already runs on its target, so the departure moves nothing: one
// predictive move, and the job keeps its target.
func TestDrainedNodeDepartsDuringRestore(t *testing.T) {
	c := lanCampus(t, nil, oneGPU("a", "b")...)
	id, sick := submitBig(t, c)
	c.Run(2 * time.Minute)

	c.Health[sick].Inject(gpu.HealthEvent{
		Kind: gpu.HealthXIDFatal, Severity: gpu.SeverityCritical, DeviceID: "GPU-0", XID: 79,
		At: c.Clock.Now(), Message: "test: GPU has fallen off the bus",
	})
	for i := 0; i < 30; i++ {
		if st, _ := c.Coord.JobStatus(id); st.NodeID != sick {
			break
		}
		c.Run(time.Second)
	}
	st, _ := c.Coord.JobStatus(id)
	if st.State != db.JobRunning || st.NodeID == sick {
		t.Fatalf("after the drain: %+v, want running off %s", st, sick)
	}
	started, delay := lastStart(t, c, id)
	if !c.Clock.Now().Before(started.Time.Add(delay)) {
		t.Fatal("the restore had already arrived; the departure must land during it")
	}
	c.Agents[sick].Depart(api.DepartScheduled, time.Minute)
	c.Run(2 * time.Minute)

	if now, _ := c.Coord.JobStatus(id); now.State != db.JobRunning || now.NodeID != st.NodeID {
		t.Fatalf("after the departure: %+v, want still running on %s", now, st.NodeID)
	}
	want := map[string]int{"predictive": 1}
	if drains, moved := obs.Kinds(c.Trace.Events())[obs.KindPredictiveMigrate], migrations(c); drains != 1 || !maps.Equal(moved, want) {
		t.Fatalf("%d predictive moves, migrations %v; want 1 and %v", drains, moved, want)
	}
}

// TestTargetDepartsDuringRestore: the target of a relaunch departs
// while the chain is still on the wire. The job reads running there, so
// that departure moves it again, and it resumes from the same step.
func TestTargetDepartsDuringRestore(t *testing.T) {
	c := lanCampus(t, nil, oneGPU("a", "b", "c")...)
	id, home := submitBig(t, c)
	c.Run(2 * time.Minute)
	c.Agents[home].Depart(api.DepartScheduled, time.Minute)
	first, _ := lastStart(t, c, id)
	c.Run(5 * time.Second)

	c.Agents[first.Node].Depart(api.DepartScheduled, time.Minute)
	second, _ := lastStart(t, c, id)
	if second.Node == first.Node || second.Node == home {
		t.Fatalf("second relaunch on %s, want the third node", second.Node)
	}
	if second.Detail["restore_step"] != first.Detail["restore_step"] {
		t.Fatalf("second relaunch resumes at %s, want %s: the job never stepped on %s",
			second.Detail["restore_step"], first.Detail["restore_step"], first.Node)
	}
	if moved := migrations(c); moved["scheduled"] != 2 {
		t.Fatalf("migrations %v, want two scheduled", moved)
	}
	if n := obs.Kinds(c.Trace.Events())[obs.KindJobRequeued]; n != 0 {
		t.Fatalf("%d requeues, want none", n)
	}
}

// TestPredictiveDrainLandsEveryJob: a node that crosses the unhealthy
// threshold with two running jobs drains both in one planning batch, to
// two devices, with no relaunch bounced. (Best-fit, because it has no
// cursor: asked twice about an unchanged store it answers the same
// device twice.)
func TestPredictiveDrainLandsEveryJob(t *testing.T) {
	c := lanCampus(t, scheduler.BestFit{}, NodeDef{ID: "sick", GPUs: []gpu.Spec{gpu.RTX3090, gpu.RTX3090}})
	var jobs []string
	for i := 0; i < 2; i++ {
		id, _ := submitBig(t, c)
		jobs = append(jobs, id)
	}
	for _, d := range oneGPU("t1", "t2") {
		c.Defs = append(c.Defs, d)
		c.Net.AddNode(netsim.NodeLink{Name: d.ID, Access: netsim.Gbps, Latency: 250 * time.Microsecond})
		if err := c.Reboot(d.ID); err != nil {
			t.Fatal(err)
		}
	}
	c.Run(2 * time.Minute)

	c.Health["sick"].Inject(gpu.HealthEvent{
		Kind: gpu.HealthXIDFatal, Severity: gpu.SeverityCritical, DeviceID: "GPU-0", XID: 79,
		At: c.Clock.Now(), Message: "test: GPU has fallen off the bus",
	})
	c.Run(2 * time.Minute)

	devices := map[string]bool{}
	for _, id := range jobs {
		st, _ := c.Coord.JobStatus(id)
		if st.State != db.JobRunning || st.NodeID == "sick" {
			t.Fatalf("%s after the drain: %+v", id, st)
		}
		devices[st.NodeID+"/"+st.DeviceID] = true
	}
	if len(devices) != 2 {
		t.Fatalf("both jobs were sent to one device: %v", devices)
	}
	if requeued, moved := obs.Kinds(c.Trace.Events())[obs.KindJobRequeued], migrations(c)["predictive"]; requeued != 0 || moved != 2 {
		t.Fatalf("predictive drain: %d requeued, %d moved, want 0 and 2", requeued, moved)
	}
}
