package strategy_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/fuzz"
	"repro/internal/strategy"
	"repro/internal/subjects"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden files under testdata/")

// goldenCampaign is one campaign whose canonical report the golden pins.
type goldenCampaign struct {
	subject string
	name    strategy.Name
	engine  fuzz.Engine
}

func (c goldenCampaign) label() string {
	return fmt.Sprintf("%s/%s/%s", c.subject, c.name, c.engine)
}

// goldenCampaigns is every subject as path and as pcguard, plus one
// CGT, one cull and one opp campaign: the single-phase exec path on
// every subject (gdk's seeds run to the step limit), the CGT engine's
// fast run and retrace, and both round-based drivers.
func goldenCampaigns() []goldenCampaign {
	var cs []goldenCampaign
	for _, name := range subjects.Names() {
		cs = append(cs,
			goldenCampaign{name, strategy.Path, fuzz.EngineAuto},
			goldenCampaign{name, strategy.PCGuard, fuzz.EngineAuto})
	}
	return append(cs,
		goldenCampaign{"jq", strategy.PCGuard, fuzz.EngineCGT},
		goldenCampaign{"mp42aac", strategy.Cull, fuzz.EngineAuto},
		goldenCampaign{"jq", strategy.Opp, fuzz.EngineAuto})
}

// TestCanonicalReportGolden pins the SHA-256 of campaign.CanonicalReport
// for a fixed set of short campaigns. Changes to the execution engine
// or the fuzz loop that claim to leave campaigns unchanged must keep
// every hash; a change that means to alter campaigns rewrites the file
// (go test ./internal/strategy -run CanonicalReportGolden -update-golden)
// and says why.
func TestCanonicalReportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	var got bytes.Buffer
	for _, c := range goldenCampaigns() {
		sub := subjects.Get(c.subject)
		out, err := strategy.Run(c.name, sub.MustProgram(), strategy.Config{
			Opts:   fuzz.Options{Seed: 1, Engine: c.engine},
			Budget: 2000,
			Seeds:  sub.Seeds,
		})
		if err != nil {
			t.Fatalf("%s: %v", c.label(), err)
		}
		canon, err := campaign.CanonicalReport(out.Report)
		if err != nil {
			t.Fatalf("%s: %v", c.label(), err)
		}
		fmt.Fprintf(&got, "%s %x\n", c.label(), sha256.Sum256(canon))
	}
	path := filepath.Join("testdata", "canonical_report.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update-golden): %v", err)
	}
	wantByLabel := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(want))
	for sc.Scan() {
		label, sum, _ := strings.Cut(sc.Text(), " ")
		wantByLabel[label] = sum
	}
	sc = bufio.NewScanner(&got)
	n := 0
	for sc.Scan() {
		label, sum, _ := strings.Cut(sc.Text(), " ")
		n++
		if w, ok := wantByLabel[label]; !ok {
			t.Errorf("%s: not in the golden", label)
		} else if w != sum {
			t.Errorf("%s: canonical report sha256 %s, golden %s", label, sum, w)
		}
	}
	if n != len(wantByLabel) {
		t.Errorf("%d campaigns ran, the golden has %d", n, len(wantByLabel))
	}
}
