package sim

import (
	"fmt"
	"io"
	"strings"
)

// ComparisonRow is one criterion of the paper's Table 1, comparing
// distributed computing platforms for campus GPU sharing.
type ComparisonRow struct {
	Criterion  string
	OpenStack  string
	CloudStack string
	OpenNebula string
	Kubernetes string
	GPUnion    string
}

// Table1 returns the paper's platform-comparison matrix verbatim.
func Table1() []ComparisonRow {
	return []ComparisonRow{
		{"Community Support", "Extensive", "Limited", "Limited", "Extensive", "Academic"},
		{"Deployment Complexity", "Very High", "Medium", "Medium", "High", "Low"},
		{"Resource Footprint", "Very Heavy", "Medium", "Light", "Heavy", "Minimal"},
		{"Learning Curve", "Steep", "Moderate", "Gentle", "Steep", "Gentle"},
		{"Provider Autonomy", "None", "None", "Limited", "None", "Full"},
		{"Workload Focus", "VMs/Mixed", "VMs", "VMs/Mixed", "Containers", "GPU Containers"},
		{"Voluntary Participation", "No", "No", "No", "No", "Yes"},
		{"Dynamic Node Joining", "Limited", "Limited", "Limited", "Limited", "Native"},
		{"GPU Specialization", "Add-on", "Limited", "Add-on", "Plugin", "Core Feature"},
		{"Campus Network Optimization", "No", "No", "No", "No", "Yes"},
		{"Target Environment", "Data Center", "SME Clouds", "Private Clouds", "Large Clusters", "Campus LANs"},
		{"Fault Tolerance Model", "Infrastructure", "Infrastructure", "Infrastructure", "Infrastructure", "Workload"},
	}
}

// GPUnionClaims maps each of Table 1's GPUnion-column claims to the
// code that implements it, so the comparison is checkable rather than
// rhetorical.
func GPUnionClaims() map[string]string {
	return map[string]string{
		"Provider Autonomy":           "agent.KillSwitch / agent.Pause / agent.Depart act locally, never blocking on the coordinator",
		"Voluntary Participation":     "core.Coordinator.Register admits any node at any time; departures are first-class (db.NodeDeparted)",
		"Dynamic Node Joining":        "core tests: a pending job starts the moment a new node registers",
		"GPU Specialization":          "scheduler places by GPU memory + CUDA compute capability; gpu.Inventory models devices natively",
		"Campus Network Optimization": "netsim models the campus LAN; incremental checkpoints keep backup traffic under 2% of the backbone",
		"Fault Tolerance Model":       "checkpoint.ALC + core.Coordinator's relocation (migrateJobsFrom, relocateLive) recover workloads, not infrastructure",
		"Workload Focus":              "container.Runtime runs GPU containers exclusively (batch + interactive)",
		"Deployment Complexity":       "two static binaries (cmd/coordinator, cmd/agent) and one JSON config",
		"Resource Footprint":          "coordinator state is one in-process database; agents are a single goroutine loop",
	}
}

// WriteTable1 renders the comparison in the paper's layout.
func WriteTable1(w io.Writer) error {
	rows := Table1()
	platforms := []string{"Criterion", "OpenStack", "CloudStack", "OpenNebula", "Kubernetes", "GPUnion"}
	widths := make([]int, len(platforms))
	for i, p := range platforms {
		widths[i] = len(p)
	}
	for _, r := range rows {
		cells := []string{r.Criterion, r.OpenStack, r.CloudStack, r.OpenNebula, r.Kubernetes, r.GPUnion}
		for i, c := range cells {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		return strings.Join(parts, "  ")
	}
	if _, err := fmt.Fprintln(w, line(platforms)); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", len(line(platforms)))); err != nil {
		return err
	}
	for _, r := range rows {
		cells := []string{r.Criterion, r.OpenStack, r.CloudStack, r.OpenNebula, r.Kubernetes, r.GPUnion}
		if _, err := fmt.Fprintln(w, line(cells)); err != nil {
			return err
		}
	}
	return nil
}
