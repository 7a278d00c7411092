// Command campus-sim regenerates the paper's evaluation (§4, §5.3,
// Table 1) from the discrete-event campus simulation.
//
// Usage:
//
//	campus-sim -table1            # platform comparison matrix
//	campus-sim -fig2 [-weeks 6]   # utilization + interactive sessions
//	campus-sim -fig3              # migration under interruptions
//	campus-sim -impact            # training-time inflation
//	campus-sim -traffic           # checkpoint backup bandwidth
//	campus-sim -scalability       # coordinator scaling sweep
//	campus-sim -chaos             # seeded fault injection + invariant audit
//	campus-sim -all               # everything
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	"gpunion/internal/obs"
	"gpunion/internal/sim"
)

func main() {
	table1 := flag.Bool("table1", false, "print the Table 1 platform comparison")
	fig2 := flag.Bool("fig2", false, "run the Fig. 2 utilization experiment")
	fig3 := flag.Bool("fig3", false, "run the Fig. 3 migration experiment")
	impact := flag.Bool("impact", false, "run the training-impact study")
	traffic := flag.Bool("traffic", false, "run the network-traffic analysis")
	scalability := flag.Bool("scalability", false, "run the scalability sweep")
	chaosRun := flag.Bool("chaos", false, "run the chaos schedules with invariant audits")
	all := flag.Bool("all", false, "run everything")
	weeks := flag.Int("weeks", 6, "fig2 observation period")
	seed := flag.Int64("seed", 42, "simulation seed")
	flag.Parse()

	any := *table1 || *fig2 || *fig3 || *impact || *traffic || *scalability || *chaosRun || *all
	if !any {
		flag.Usage()
		os.Exit(2)
	}
	if *table1 || *all {
		runTable1()
	}
	if *fig2 || *all {
		runFig2(*weeks, *seed)
	}
	if *fig3 || *all {
		runFig3(*seed)
	}
	if *impact || *all {
		runImpact(*seed)
	}
	if *traffic || *all {
		runTraffic(*seed)
	}
	if *scalability || *all {
		runScalability(*seed)
	}
	if *chaosRun || *all {
		runChaos(*seed)
	}
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n\n", title)
}

func runTable1() {
	header("Table 1: Comparison of Distributed Computing Platforms for Campus GPU Sharing")
	if err := sim.WriteTable1(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func runFig2(weeks int, seed int64) {
	header(fmt.Sprintf("Fig. 2: Research group GPU utilization comparison (%d weeks)", weeks))
	res, err := sim.RunFig2(sim.Fig2Config{Weeks: weeks, Seed: seed})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-28s %8s %8s\n", "week", "manual", "gpunion")
	for w := range res.WeeklyBaseline {
		fmt.Printf("%-28d %7.1f%% %7.1f%%\n", w+1, 100*res.WeeklyBaseline[w], 100*res.WeeklyGPUnion[w])
	}
	fmt.Printf("\naverage GPU utilization:     %.0f%% -> %.0f%%   (paper: 34%% -> 67%%)\n",
		100*res.BaselineUtilization, 100*res.GPUnionUtilization)
	fmt.Printf("interactive sessions:        %d -> %d (%+.0f%%)   (paper: +40%%)\n",
		res.BaselineSessions, res.GPUnionSessions, 100*res.SessionGain())
	fmt.Printf("cross-lab jobs lost (manual): %d\n", res.LostCrossLabJobs)
}

func runFig3(seed int64) {
	header("Fig. 3: Migration performance under different interruption scenarios")
	res, err := sim.RunFig3(sim.Fig3Config{Seed: seed})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-12s %7s %10s %10s %12s %12s\n",
		"scenario", "events", "displaced", "success", "work lost", "downtime")
	row := func(name string, s sim.ScenarioResult) {
		fmt.Printf("%-12s %7d %10d %9.0f%% %12s %12s\n",
			name, s.Events, s.Displaced, 100*s.MigrationSuccessRate,
			s.MeanWorkLost.Round(time.Second), s.MeanDowntime.Round(time.Second))
	}
	row("scheduled", res.Scheduled)
	row("emergency", res.Emergency)
	row("temporary", res.Temporary)
	fmt.Printf("\nmigrate-back fraction: %.0f%%   (paper: 67%%)\n", 100*res.MigratedBackFraction)
	fmt.Printf("checkpoint interval:   %v (emergency loss is bounded by it)\n", res.CheckpointInterval)
	fmt.Printf("paper reference:       94%% scheduled success; loss ≈ checkpoint interval\n")
}

func runImpact(seed int64) {
	header("Training impact: completion-time inflation vs interruptions")
	rows, err := sim.RunTrainingImpact(sim.ImpactConfig{MaxInterruptions: 6, Seed: seed})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-14s %-10s %4s %12s %12s %9s\n",
		"class", "memory", "k", "baseline", "interrupted", "increase")
	for _, r := range rows {
		mem := "regular"
		if r.MemoryIntensive {
			mem = "intensive"
		}
		fmt.Printf("%-14s %-10s %4d %12s %12s %8.1f%%\n",
			r.Class, mem, r.Interruptions,
			r.BaselineTime.Round(time.Minute), r.InterruptedTime.Round(time.Minute),
			r.IncreasePct())
	}
	fmt.Printf("\npaper reference: 2–4 interruptions => 3–7%% increase; memory-intensive more sensitive\n")
}

func runTraffic(seed int64) {
	header("Network traffic: checkpoint backup vs campus bandwidth")
	for _, full := range []bool{false, true} {
		mode := "incremental"
		if full {
			mode = "full"
		}
		res, err := sim.RunTraffic(sim.TrafficConfig{Hours: 24, Jobs: 20, ForceFull: full, Seed: seed})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s checkpoints=%-5d shipped=%6.1f GB  peak=%5.2f%%  mean=%5.2f%% of %.0f Gbps backbone\n",
			mode, res.Checkpoints, float64(res.TotalCheckpointBytes)/1e9,
			100*res.PeakUtilization, 100*res.MeanUtilization, res.BackboneGbps)
	}
	fmt.Printf("\npaper reference: incremental backup consumes < 2%% of campus bandwidth at peak\n")
}

func runScalability(seed int64) {
	header("Scalability: coordinator costs vs campus size (§5.3)")
	rows, err := sim.RunScalability(sim.ScalabilityConfig{Seed: seed})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%6s %14s %14s %14s %14s %10s\n",
		"nodes", "sched mean", "sched p95", "batch/dec", "hb sweep", "sub-sec")
	for _, r := range rows {
		fmt.Printf("%6d %14s %14s %14s %14s %10v\n",
			r.Nodes, r.MeanSchedulingLatency, r.P95SchedulingLatency,
			r.BatchMeanPerDecision, r.HeartbeatSweepLatency, r.SubSecond)
	}
	fmt.Printf("\npaper reference: sub-second scheduling to 50 nodes; DB/heartbeat bottlenecks beyond 200\n")
	fmt.Printf("batch/dec is per-decision cost via PlaceBatch; hb sweep is one failure-detection pass over every node\n")
	fmt.Printf("what the whole coordinator sustains (store, WAL, fsync) is measured by bench/: docs/BENCHMARKS.md \"§5.3, measured\"\n")
}

func runChaos(seed int64) {
	header("Chaos: seeded fault injection with state-invariant audits")
	fmt.Printf("%-24s %7s %7s %10s %10s %10s %10s %8s %12s %11s\n",
		"schedule", "faults", "audits", "submitted", "completed", "recoveries", "diskFaults", "trace", "fold/fwd", "violations")
	var last sim.ChaosResult
	for _, sc := range sim.ChaosSchedules {
		res, err := sim.RunChaosSchedule(sc.Name, seed)
		if err != nil {
			log.Fatal(err)
		}
		foldFwd := "-"
		if res.AggForwards > 0 {
			foldFwd = fmt.Sprintf("%d/%d", res.AggFoldedBeats, res.AggForwards)
		}
		fmt.Printf("%-24s %7d %7d %10d %10d %10d %10d %8d %12s %11d\n",
			sc.Name, len(res.Schedule), res.Report.Audits, res.SubmittedJobs,
			res.CompletedJobs, res.Recoveries, res.WALFaultsInjected,
			len(res.Trace), foldFwd, len(res.Violations))
		for _, v := range res.Violations {
			fmt.Printf("    INVARIANT VIOLATION: %s\n", v)
		}
		last = res
	}
	fmt.Printf("\nzero violations means every audited invariant held under the injected faults\n")
	printObsSummary(last)
}

// printObsSummary renders the flight-recorder timeline and a metrics
// excerpt from the final chaos schedule — the end-of-run O&M view an
// operator would use to localize a fault from trace + metrics alone.
func printObsSummary(res sim.ChaosResult) {
	header("Flight recorder: last schedule's trace + coordinator metrics")
	kinds := obs.Kinds(res.Trace)
	names := make([]string, 0, len(kinds))
	for k := range kinds {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-24s %6d\n", k, kinds[k])
	}
	if res.TraceDropped > 0 {
		fmt.Printf("  (ring overwrote %d older events)\n", res.TraceDropped)
	}
	if st := obs.StatSpans(obs.Spans(res.Trace, "job.submitted", "job.completed")); st.Count > 0 {
		fmt.Printf("\njob submit -> complete: %d spans, min %v  mean %v  max %v\n",
			st.Count, st.Min.Round(time.Second), st.Mean.Round(time.Second),
			st.Max.Round(time.Second))
	}

	fmt.Printf("\ncoordinator metrics excerpt:\n")
	excerpts := []string{
		"gpunion_heartbeats_total", "gpunion_heartbeat_duplicates_total",
		"gpunion_wal_fsync_seconds_count", "gpunion_wal_group_batch_size_count",
		"gpunion_sched_pool_hits_total", "gpunion_sched_pool_misses_total",
		"gpunion_checkpoint_corruptions_total", "gpunion_checkpoint_fallbacks_total",
		"gpunion_leader_epoch", "gpunion_jobs{",
	}
	for _, line := range strings.Split(res.MetricsText, "\n") {
		for _, want := range excerpts {
			if strings.HasPrefix(line, want) {
				fmt.Printf("  %s\n", line)
				break
			}
		}
	}
}
