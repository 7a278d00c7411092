package chaos

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/generate_every_family.txt from the current Generate")

// everyFamilySpec turns every fault family on at once, some knobs left
// at their defaults and some set, over a fleet and two aggregators.
func everyFamilySpec() Spec {
	return Spec{
		Duration:             12 * time.Hour,
		Nodes:                []string{"n1", "n2", "n3", "n4", "n5", "n6"},
		ChurnPerNodePerDay:   2,
		PartitionsPerDay:     12,
		WALFaultsPerDay:      8,
		MeanWALFault:         7 * time.Minute,
		CoordCrashes:         2,
		ClockSkewsPerDay:     8,
		MaxSkew:              3 * time.Minute,
		DupWindowsPerDay:     6,
		DataPartitionsPerDay: 8,
		CkptFaultsPerDay:     8,
		MeanCkptFault:        12 * time.Minute,
		LeaderKills:          2,
		SplitBrains:          2,
		GrayDegradesPerDay:   8,
		MeanGrayDegrade:      25 * time.Minute,
		PartialLossPerDay:    8,
		CkptReadRotPerDay:    6,
		Aggregators:          []string{"agg-00", "agg-01"},
		AggCrashesPerDay:     6,
		AggPartitionsPerDay:  6,
	}
}

// TestGenerateEveryFamily pins Generate's rng draw order with every
// family on in one spec, where the canned schedules turn them on one or
// two at a time: a family that draws out of turn moves every fault
// after it. The second case has nothing to target, so only the
// fleet-wide families and the coordinator faults compose faults.
func TestGenerateEveryFamily(t *testing.T) {
	seen := map[Kind]bool{}
	for _, f := range Generate(everyFamilySpec(), 21) {
		seen[f.Kind] = true
	}
	for _, k := range []Kind{KindNodeCrash, KindNodeDepart, KindNodeReturn, KindPartition,
		KindWALSyncError, KindWALShortWrite, KindCoordCrash, KindClockSkew, KindDupDeliver,
		KindDataPartition, KindCkptBitFlip, KindCkptTruncate, KindLeaderKill, KindSplitBrain,
		KindGrayDegrade, KindPartialLoss, KindCkptReadRot, KindAggCrash, KindAggPartition} {
		if !seen[k] {
			t.Errorf("the every-family schedule composes no %s fault", k)
		}
	}
	noTargets := everyFamilySpec()
	noTargets.Nodes, noTargets.Aggregators = nil, nil
	var b strings.Builder
	b.WriteString("# at\tkind\tnode\tnodes\tdur\tskew\ttemporary\n")
	for _, c := range []struct {
		name string
		spec Spec
		seed int64
	}{{"every-family", everyFamilySpec(), 21}, {"no-targets", noTargets, 7}} {
		fmt.Fprintf(&b, "## %s seed %d\n", c.name, c.seed)
		for _, f := range Generate(c.spec, c.seed) {
			fmt.Fprintf(&b, "%v\t%s\t%s\t%v\t%v\t%v\t%v\n", f.At, f.Kind, f.Node, f.Nodes, f.Dur, f.Skew, f.Temporary)
		}
	}
	path := filepath.Join("testdata", "generate_every_family.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	for i := range got {
		if i >= len(wantLines) || got[i] != wantLines[i] {
			w := "(end of file)"
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Fatalf("%s line %d:\n got %s\nwant %s", path, i+1, got[i], w)
		}
	}
	if len(wantLines) != len(got) {
		t.Fatalf("%s has %d lines, Generate composes %d", path, len(wantLines), len(got))
	}
}
