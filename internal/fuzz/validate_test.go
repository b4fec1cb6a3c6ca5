package fuzz

import (
	"strings"
	"testing"
)

func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		want string // substring of the error; "" means valid
	}{
		{"zero options", Options{}, ""},
		{"negative map size", Options{MapSize: -1}, "MapSize"},
		{"non-power-of-two map size", Options{MapSize: 3000}, "power of two"},
		{"unknown engine", Options{Engine: Engine(99)}, "engine"},
		{"bytecode engine", Options{Engine: EngineAuto}, ""},
		{"cgt engine", Options{Engine: EngineCGT}, ""},
		{"unknown profile", Options{Profile: Profile(99)}, "profile"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opts.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestParseEngine pins the flag surface: every engine name round-trips
// through ParseEngine/String, the retired interpreter engine is
// rejected, and the unknown-name error enumerates every valid engine
// so CLI users see the full menu.
func TestParseEngine(t *testing.T) {
	round := map[string]Engine{
		"":         EngineAuto,
		"auto":     EngineAuto,
		"bytecode": EngineAuto,
		"cgt":      EngineCGT,
	}
	for name, want := range round {
		got, err := ParseEngine(name)
		if err != nil || got != want {
			t.Errorf("ParseEngine(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, e := range []Engine{EngineAuto, EngineCGT} {
		if back, err := ParseEngine(e.String()); err != nil || back != e {
			t.Errorf("engine %v does not round-trip through its String %q", e, e.String())
		}
	}
	for _, bad := range []string{"turbo", "interp", "interpreter"} {
		_, err := ParseEngine(bad)
		if err == nil {
			t.Fatalf("ParseEngine accepted engine %q", bad)
		}
		for _, name := range []string{"bytecode", "cgt"} {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("ParseEngine error %q does not list engine %q", err, name)
			}
		}
	}
}

// TestNewRejectsInvalidOptions pins that validation runs at
// construction: a contradictory Options bundle fails fast instead of
// corrupting a campaign later.
func TestNewRejectsInvalidOptions(t *testing.T) {
	prog := compileT(t, `func main(input) { return 0; }`)
	if _, err := New(prog, Options{MapSize: -2}); err == nil {
		t.Fatal("New accepted a negative MapSize")
	}
	if _, err := New(prog, Options{}); err != nil {
		t.Fatalf("New rejected valid zero options: %v", err)
	}
}
