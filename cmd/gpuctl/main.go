// Command gpuctl is GPUnion's command-line client for both roles:
//
// Users (against the coordinator):
//
//	gpuctl -coordinator http://coord:8080 submit -image pytorch/pytorch:2.3-cuda12 -gpu-mem 8192
//	gpuctl -coordinator http://coord:8080 status job-000001
//	gpuctl -coordinator http://coord:8080 kill job-000001
//	gpuctl -coordinator http://coord:8080 nodes
//
// Operators (against the coordinator — the O&M surface):
//
//	gpuctl -coordinator http://coord:8080 metrics
//	gpuctl -coordinator http://coord:8080 trace [-job job-000001] [-json]
//	gpuctl -coordinator http://coord:8080 samples <node> [-metric gpu_utilization] [-since 5m]
//
// Providers (against their local agent — provider supremacy controls):
//
//	gpuctl -agent http://127.0.0.1:7070 killswitch
//	gpuctl -agent http://127.0.0.1:7070 pause | resume
//	gpuctl -agent http://127.0.0.1:7070 depart -reason scheduled -grace 120
//	gpuctl -agent http://127.0.0.1:7070 agent-status
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"gpunion/internal/agent"
	"gpunion/internal/api"
	"gpunion/internal/core"
	"gpunion/internal/obs"
	"gpunion/internal/workload"
)

func main() {
	coordURL := flag.String("coordinator", "http://127.0.0.1:8080", "coordinator base URL")
	agentURL := flag.String("agent", "http://127.0.0.1:7070", "local agent base URL")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	cmd, rest := args[0], args[1:]
	var err error
	switch cmd {
	case "submit":
		err = cmdSubmit(core.NewClient(*coordURL), rest)
	case "status":
		err = cmdStatus(core.NewClient(*coordURL), rest)
	case "kill":
		err = cmdKill(core.NewClient(*coordURL), rest)
	case "nodes":
		err = cmdNodes(core.NewClient(*coordURL))
	case "health":
		err = cmdHealth(core.NewClient(*coordURL))
	case "jobs":
		err = cmdJobs(core.NewClient(*coordURL))
	case "metrics":
		err = cmdMetrics(core.NewClient(*coordURL))
	case "trace":
		err = cmdTrace(core.NewClient(*coordURL), rest)
	case "samples":
		err = cmdSamples(core.NewClient(*coordURL), rest)
	case "killswitch":
		err = cmdKillSwitch(agent.NewClient(*agentURL))
	case "pause":
		err = agent.NewClient(*agentURL).Pause()
	case "resume":
		err = agent.NewClient(*agentURL).Resume()
	case "depart":
		err = cmdDepart(agent.NewClient(*agentURL), rest)
	case "agent-status":
		err = cmdAgentStatus(agent.NewClient(*agentURL))
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "gpuctl: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: gpuctl [-coordinator URL] [-agent URL] <command> [args]

user commands:    submit, status <job>, kill <job>, jobs, nodes
O&M commands:     metrics, trace [-job ID] [-json], health,
                  samples <node> [-metric M] [-since 5m]
provider commands: killswitch, pause, resume, depart, agent-status`)
}

func cmdSubmit(c *core.Client, args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	image := fs.String("image", "pytorch/pytorch:2.3-cuda12", "container image")
	kind := fs.String("kind", "batch", "batch or interactive")
	gpuMem := fs.Int64("gpu-mem", 8192, "GPU memory requirement (MiB)")
	prio := fs.Int("priority", 0, "queue priority (higher first)")
	ckptSec := fs.Int("checkpoint-interval", 600, "ALC checkpoint interval (seconds)")
	profile := fs.String("profile", "small-cnn", "training profile: small-cnn, large-cnn, small-transformer, large-transformer")
	sessionSec := fs.Int("session-seconds", 7200, "interactive session length")
	user := fs.String("user", os.Getenv("USER"), "submitting user")
	if err := fs.Parse(args); err != nil {
		return err
	}

	req := api.SubmitJobRequest{
		User: *user, Kind: *kind, ImageName: *image,
		Priority: *prio, GPUMemMiB: *gpuMem,
		CheckpointIntervalSec: *ckptSec,
	}
	if *kind == "batch" {
		spec, err := profileSpec(*profile)
		if err != nil {
			return err
		}
		req.Training = &spec
		req.GPUMemMiB = spec.GPUMemMiB
		req.CapabilityMajor = spec.MinCapability.Major
		req.CapabilityMinor = spec.MinCapability.Minor
	} else {
		req.SessionSeconds = *sessionSec
	}
	id, err := c.SubmitJob(req)
	if err != nil {
		return err
	}
	fmt.Println(id)
	return nil
}

func profileSpec(name string) (workload.TrainingSpec, error) {
	switch name {
	case "small-cnn":
		return workload.SmallCNN, nil
	case "large-cnn":
		return workload.LargeCNN, nil
	case "small-transformer":
		return workload.SmallTransformer, nil
	case "large-transformer":
		return workload.LargeTransformer, nil
	}
	return workload.TrainingSpec{}, fmt.Errorf("unknown profile %q", name)
}

func cmdStatus(c *core.Client, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: gpuctl status <job-id>")
	}
	st, err := c.JobStatus(args[0])
	if err != nil {
		return err
	}
	fmt.Printf("job:        %s\nstate:      %s\nnode:       %s\ndevice:     %s\nmigrations: %d\nsubmitted:  %s\n",
		st.JobID, st.State, orDash(st.NodeID), orDash(st.DeviceID), st.Migrations,
		st.Submitted.Format(time.RFC3339))
	if !st.Started.IsZero() {
		fmt.Printf("started:    %s\n", st.Started.Format(time.RFC3339))
	}
	if !st.Finished.IsZero() {
		fmt.Printf("finished:   %s\n", st.Finished.Format(time.RFC3339))
	}
	return nil
}

func cmdKill(c *core.Client, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: gpuctl kill <job-id>")
	}
	return c.KillJob(args[0])
}

func cmdNodes(c *core.Client) error {
	nodes, err := c.Nodes()
	if err != nil {
		return err
	}
	fmt.Printf("%-20s %-12s %-6s %-6s %s\n", "NODE", "STATUS", "GPUS", "FREE", "DEPARTURES")
	for _, n := range nodes {
		free := 0
		for _, g := range n.GPUs {
			if !g.Allocated {
				free++
			}
		}
		fmt.Printf("%-20s %-12s %-6d %-6d %d\n", n.ID, n.Status, len(n.GPUs), free, n.Departures)
	}
	return nil
}

func cmdJobs(c *core.Client) error {
	jobs, err := c.Jobs()
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %-10s %-16s %-6s %s\n", "JOB", "STATE", "NODE", "MIGR", "SUBMITTED")
	for _, j := range jobs {
		fmt.Printf("%-12s %-10s %-16s %-6d %s\n",
			j.JobID, j.State, orDash(j.NodeID), j.Migrations,
			j.Submitted.Format("Jan 2 15:04:05"))
	}
	return nil
}

// cmdSamples prints the newest retained telemetry points of one metric
// on one node.
func cmdSamples(c *core.Client, args []string) error {
	fs := flag.NewFlagSet("samples", flag.ExitOnError)
	metric := fs.String("metric", "gpu_utilization", "metric name (gpu_utilization, gpu_memory_used_mib)")
	since := fs.Duration("since", 5*time.Minute, "how far back to look (0 = all retained history)")
	if len(args) == 0 {
		return fmt.Errorf("usage: samples <node> [-metric M] [-since 5m]")
	}
	node := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	samples, err := c.NodeSamples(node, *metric, *since)
	if err != nil {
		return err
	}
	fmt.Printf("%d points of %s on %s, newest last (at most 20 shown)\n", len(samples), *metric, node)
	samples = samples[max(0, len(samples)-20):]
	for _, s := range samples {
		fmt.Printf("%s  %g\n", s.Time.Format("Jan 2 15:04:05"), s.Value)
	}
	return nil
}

// cmdHealth prints every node's gray-failure standing: the folded
// health score, whether the node is below the drain threshold, and the
// most recent events behind the score.
func cmdHealth(c *core.Client) error {
	nodes, err := c.NodeHealths()
	if err != nil {
		return err
	}
	fmt.Printf("%-20s %-12s %-8s %-10s %s\n", "NODE", "STATUS", "SCORE", "STANDING", "UPDATED")
	for _, n := range nodes {
		standing := "healthy"
		if n.Unhealthy {
			standing = "DRAINING"
		} else if n.Score < 1 {
			standing = "degraded"
		}
		updated := "-"
		if !n.UpdatedAt.IsZero() {
			updated = n.UpdatedAt.Format("Jan 2 15:04:05")
		}
		fmt.Printf("%-20s %-12s %-8.4f %-10s %s\n", n.NodeID, n.Status, n.Score, standing, updated)
		for _, ev := range n.RecentEvents {
			line := fmt.Sprintf("    %-18s %-8s", ev.Kind, ev.Severity)
			if ev.DeviceID != "" {
				line += " dev=" + ev.DeviceID
			}
			if ev.XID != 0 {
				line += fmt.Sprintf(" xid=%d", ev.XID)
			}
			if ev.Value != 0 {
				line += fmt.Sprintf(" value=%.2f", ev.Value)
			}
			if ev.Message != "" {
				line += " " + ev.Message
			}
			fmt.Println(line)
		}
	}
	return nil
}

// cmdMetrics dumps the coordinator's full Prometheus exposition —
// WAL latency, shipper lag, scheduler cache effectiveness, per-state
// job counts, leader epoch — for ad-hoc inspection or piping into
// promtool.
func cmdMetrics(c *core.Client) error {
	text, err := c.MetricsText()
	if err != nil {
		return err
	}
	fmt.Print(text)
	return nil
}

// cmdTrace fetches the coordinator's flight-recorder export and prints
// it for humans: an event-kind tally, job-lifecycle spans (submit →
// terminal) with duration statistics, or — with -job — one job's full
// timeline. -json dumps the raw export for tooling.
func cmdTrace(c *core.Client, args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	jobID := fs.String("job", "", "print one job's event timeline")
	asJSON := fs.Bool("json", false, "dump the raw trace export as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	exp, err := c.TraceExport()
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(exp)
	}
	if *jobID != "" {
		timeline := obs.JobTimeline(exp.Events, *jobID)
		if len(timeline) == 0 {
			return fmt.Errorf("no trace events for job %q", *jobID)
		}
		for _, ev := range timeline {
			printEvent(ev)
		}
		return nil
	}

	fmt.Printf("events: %d retained, %d dropped\n\n", len(exp.Events), exp.Dropped)
	kinds := obs.Kinds(exp.Events)
	names := make([]string, 0, len(kinds))
	for k := range kinds {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-24s %d\n", k, kinds[k])
	}

	for _, terminal := range []string{"job.completed", "job.failed", "job.killed"} {
		spans := obs.Spans(exp.Events, "job.submitted", terminal)
		if len(spans) == 0 {
			continue
		}
		st := obs.StatSpans(spans)
		fmt.Printf("\njob.submitted -> %s (%d spans, min %v mean %v max %v):\n",
			terminal, st.Count, st.Min, st.Mean, st.Max)
		for _, sp := range spans {
			fmt.Printf("  %-12s %-16s %s -> %s  (%v)\n",
				sp.Job, orDash(sp.To.Node),
				sp.From.Time.Format("15:04:05"), sp.To.Time.Format("15:04:05"),
				sp.Duration)
		}
	}
	return nil
}

// printEvent renders one trace event as a single line.
func printEvent(ev obs.Event) {
	fmt.Printf("%6d  %s  %-20s", ev.Seq, ev.Time.Format("15:04:05.000"), ev.Kind)
	if ev.Node != "" {
		fmt.Printf("  node=%s", ev.Node)
	}
	keys := make([]string, 0, len(ev.Detail))
	for k := range ev.Detail {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %s=%s", k, ev.Detail[k])
	}
	fmt.Println()
}

func cmdKillSwitch(c *agent.Client) error {
	resp, err := c.KillSwitch()
	if err != nil {
		return err
	}
	fmt.Printf("killed %d workloads\n", len(resp.KilledJobs))
	for _, id := range resp.KilledJobs {
		fmt.Printf("  %s\n", id)
	}
	return nil
}

func cmdDepart(c *agent.Client, args []string) error {
	fs := flag.NewFlagSet("depart", flag.ExitOnError)
	reason := fs.String("reason", "scheduled", "scheduled, emergency or temporary")
	grace := fs.Int("grace", 120, "checkpoint grace period (seconds)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch api.DepartReason(*reason) {
	case api.DepartScheduled, api.DepartEmergency, api.DepartTemporary:
	default:
		return fmt.Errorf("unknown reason %q", *reason)
	}
	return c.Depart(api.DepartReason(*reason), time.Duration(*grace)*time.Second)
}

func cmdAgentStatus(c *agent.Client) error {
	st, err := c.Status()
	if err != nil {
		return err
	}
	fmt.Printf("machine:  %s\npaused:   %v\ndeparted: %v\njobs:     %d\n",
		st.MachineID, st.Paused, st.Departed, len(st.RunningJobs))
	for _, tel := range st.Telemetry {
		fmt.Printf("  %-6s %-10s util %5.1f%%  mem %6d/%6d MiB  %4.1f °C  %5.1f W\n",
			tel.DeviceID, tel.Model, 100*tel.Utilization,
			tel.UsedMemMiB, tel.TotalMemMiB, tel.TemperatureC, tel.PowerW)
	}
	return nil
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
