package sim

import (
	"strings"
	"testing"
	"time"

	"gpunion/internal/api"
	"gpunion/internal/db"
	"gpunion/internal/gpu"
	"gpunion/internal/obs"
	"gpunion/internal/simclock"
)

// newSimClock is a test helper for arrival-process tests.
func newSimClock() *simclock.Sim { return simclock.NewSim(Epoch) }

func TestFig2ShortRunShape(t *testing.T) {
	if testing.Short() {
		t.Skip("fig2 runs a full campus week")
	}
	res, err := RunFig2(Fig2Config{Weeks: 1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	// The paper's shape: GPUnion roughly doubles utilization (34→67%).
	if res.BaselineUtilization < 0.2 || res.BaselineUtilization > 0.5 {
		t.Errorf("baseline utilization = %.2f, want ~0.34", res.BaselineUtilization)
	}
	if res.GPUnionUtilization < 0.5 || res.GPUnionUtilization > 0.85 {
		t.Errorf("GPUnion utilization = %.2f, want ~0.67", res.GPUnionUtilization)
	}
	if res.GPUnionUtilization <= res.BaselineUtilization {
		t.Error("GPUnion did not improve utilization")
	}
	if res.GPUnionUtilization < res.BaselineUtilization*1.5 {
		t.Errorf("improvement %.2f→%.2f below the paper's ~2× shape",
			res.BaselineUtilization, res.GPUnionUtilization)
	}
	// Interactive sessions increase (paper: +40%).
	if res.GPUnionSessions <= res.BaselineSessions {
		t.Errorf("sessions %d → %d, want an increase", res.BaselineSessions, res.GPUnionSessions)
	}
	if len(res.WeeklyBaseline) != 1 || len(res.WeeklyGPUnion) != 1 {
		t.Errorf("weekly series lengths %d, %d", len(res.WeeklyBaseline), len(res.WeeklyGPUnion))
	}
	if res.LostCrossLabJobs == 0 {
		t.Error("manual coordination lost no cross-lab demand")
	}
}

func TestFig3Shape(t *testing.T) {
	res, err := RunFig3(Fig3Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	// Scheduled departures migrate within the deadline at a high rate
	// (paper: 94%).
	if res.Scheduled.MigrationSuccessRate < 0.85 {
		t.Errorf("scheduled success = %.2f, want >= 0.85", res.Scheduled.MigrationSuccessRate)
	}
	// Scheduled departures lose (almost) no work: the final checkpoint
	// captures progress at departure.
	if res.Scheduled.MeanWorkLost > time.Minute {
		t.Errorf("scheduled work lost = %v, want ~0", res.Scheduled.MeanWorkLost)
	}
	// Emergency departures lose work bounded by the checkpoint interval
	// (paper: "work loss equivalent to the checkpoint interval").
	if res.Emergency.Displaced > 0 {
		if res.Emergency.MeanWorkLost <= 0 {
			t.Error("emergency departures lost no work")
		}
		if res.Emergency.MeanWorkLost > res.CheckpointInterval {
			t.Errorf("emergency work lost %v exceeds checkpoint interval %v",
				res.Emergency.MeanWorkLost, res.CheckpointInterval)
		}
	}
	// Displaced jobs migrate back when the provider returns (paper: 67%).
	if res.MigratedBackFraction < 0.4 || res.MigratedBackFraction > 1.0 {
		t.Errorf("migrate-back fraction = %.2f, want ~0.67", res.MigratedBackFraction)
	}
	for name, s := range map[string]ScenarioResult{
		"scheduled": res.Scheduled, "emergency": res.Emergency, "temporary": res.Temporary,
	} {
		if s.Events == 0 {
			t.Errorf("%s: no events simulated", name)
		}
	}
}

func TestFig3WorkLossScalesWithCheckpointInterval(t *testing.T) {
	short, err := RunFig3(Fig3Config{Seed: 7, CheckpointInterval: 5 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	long, err := RunFig3(Fig3Config{Seed: 7, CheckpointInterval: 30 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if short.Emergency.Displaced == 0 || long.Emergency.Displaced == 0 {
		t.Skip("no emergency displacements in one arm")
	}
	if long.Emergency.MeanWorkLost <= short.Emergency.MeanWorkLost {
		t.Errorf("work lost should grow with the interval: 5m→%v, 30m→%v",
			short.Emergency.MeanWorkLost, long.Emergency.MeanWorkLost)
	}
}

// TestFig3ReturnRebootsProvider: a provider back from any departure is
// a fresh agent under the same machine ID that has registered again and
// is active.
func TestFig3ReturnRebootsProvider(t *testing.T) {
	for _, scenario := range []api.DepartReason{api.DepartScheduled, api.DepartEmergency, api.DepartTemporary} {
		t.Run(string(scenario), func(t *testing.T) {
			campus, err := NewCampus([]NodeDef{{ID: "vol-1", GPUs: repeatSpec(gpu.RTX3090, 1), Lab: "a"}}, CampusConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer campus.Stop()
			booted := uint64(len(campus.Coord.Trace().Events()))
			tracker := &fig3Tracker{campus: campus}
			before := campus.Agents["vol-1"]
			tracker.interrupt("vol-1", scenario)
			campus.Run(time.Hour)
			tracker.bringBack("vol-1")
			campus.Run(5 * time.Minute)
			registrations := 0
			for _, ev := range campus.Coord.Trace().Events() {
				if ev.Seq >= booted && ev.Kind == obs.KindNodeRegistered && ev.Node == "vol-1" {
					registrations++
				}
			}

			after := campus.Agents["vol-1"]
			if after.Departed() || after.MachineID() != "vol-1" {
				t.Fatalf("returned agent: departed=%v id=%q", after.Departed(), after.MachineID())
			}
			if rec, err := campus.Coord.DB().GetNode("vol-1"); err != nil || rec.Status != db.NodeActive {
				t.Fatalf("coordinator's record after the return: %+v, %v", rec, err)
			}
			if after == before || registrations != 1 {
				t.Fatalf("%s return: same agent %v, %d registrations; want a fresh agent registered once", scenario, after == before, registrations)
			}
		})
	}
}

func TestTrainingImpactShape(t *testing.T) {
	rows, err := RunTrainingImpact(ImpactConfig{MaxInterruptions: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	sawMemoryIntensive := false
	for _, r := range rows {
		if r.Interruptions == 0 && r.IncreasePct() != 0 {
			t.Errorf("zero interruptions inflated time by %.1f%%", r.IncreasePct())
		}
		// The paper's headline: 2–4 interruptions cost only single-digit
		// percentages.
		if r.Interruptions >= 2 && r.Interruptions <= 4 {
			if pct := r.IncreasePct(); pct < 0.5 || pct > 12 {
				t.Errorf("%s k=%d increase = %.1f%%, want low single digits",
					r.Class, r.Interruptions, pct)
			}
		}
		if r.MemoryIntensive {
			sawMemoryIntensive = true
		}
	}
	if !sawMemoryIntensive {
		t.Error("study omitted the memory-intensive subject")
	}
}

func TestTrafficIncrementalUnderTwoPercent(t *testing.T) {
	res, err := RunTraffic(TrafficConfig{Hours: 12, Jobs: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakUtilization >= 0.02 {
		t.Errorf("incremental peak = %.3f%%, paper claims < 2%%", 100*res.PeakUtilization)
	}
	if res.Checkpoints == 0 || res.TotalCheckpointBytes == 0 {
		t.Fatalf("no checkpoint traffic recorded: %+v", res)
	}
}

func TestTrafficFullCheckpointsCostMore(t *testing.T) {
	inc, err := RunTraffic(TrafficConfig{Hours: 8, Jobs: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	full, err := RunTraffic(TrafficConfig{Hours: 8, Jobs: 20, Seed: 5, ForceFull: true})
	if err != nil {
		t.Fatal(err)
	}
	if full.TotalCheckpointBytes <= inc.TotalCheckpointBytes*2 {
		t.Errorf("full totals %d should dwarf incremental %d",
			full.TotalCheckpointBytes, inc.TotalCheckpointBytes)
	}
	if full.MeanUtilization <= inc.MeanUtilization {
		t.Error("full checkpointing should consume more bandwidth")
	}
}

func TestScalabilityTrends(t *testing.T) {
	rows, err := RunScalability(ScalabilityConfig{
		NodeCounts:        []int{10, 50, 200},
		DecisionsPerPoint: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Sub-second scheduling at 50 nodes (paper's operating point).
	for _, r := range rows {
		if r.Nodes <= 50 && !r.SubSecond {
			t.Errorf("n=%d not sub-second: p95 = %v", r.Nodes, r.P95SchedulingLatency)
		}
	}
	// Scheduling cost grows with node count.
	if rows[2].MeanSchedulingLatency <= rows[0].MeanSchedulingLatency {
		t.Error("scheduling latency should grow with node count")
	}
}

func TestTable1Complete(t *testing.T) {
	rows := Table1()
	if len(rows) != 12 {
		t.Fatalf("Table 1 rows = %d, want 12", len(rows))
	}
	for _, r := range rows {
		for _, cell := range []string{r.Criterion, r.OpenStack, r.CloudStack, r.OpenNebula, r.Kubernetes, r.GPUnion} {
			if cell == "" {
				t.Errorf("row %q has an empty cell", r.Criterion)
			}
		}
	}
	// Headline differentiators from the paper.
	byCriterion := map[string]ComparisonRow{}
	for _, r := range rows {
		byCriterion[r.Criterion] = r
	}
	if byCriterion["Provider Autonomy"].GPUnion != "Full" {
		t.Error("GPUnion provider autonomy must be Full")
	}
	if byCriterion["Voluntary Participation"].GPUnion != "Yes" {
		t.Error("GPUnion voluntary participation must be Yes")
	}
	if byCriterion["Fault Tolerance Model"].GPUnion != "Workload" {
		t.Error("GPUnion fault tolerance must be Workload-level")
	}
}

func TestGPUnionClaimsCoverDifferentiators(t *testing.T) {
	claims := GPUnionClaims()
	for _, key := range []string{"Provider Autonomy", "Voluntary Participation", "Fault Tolerance Model"} {
		if claims[key] == "" {
			t.Errorf("claim %q has no implementation pointer", key)
		}
	}
}

func TestWriteTable1Renders(t *testing.T) {
	var sb strings.Builder
	if err := WriteTable1(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"GPUnion", "Provider Autonomy", "Kubernetes", "Campus LANs"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q", want)
		}
	}
	if lines := strings.Count(out, "\n"); lines < 13 {
		t.Errorf("rendered table has %d lines", lines)
	}
}
