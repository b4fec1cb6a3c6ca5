package strategy

import "testing"

func TestRoundBudgetDefaults(t *testing.T) {
	// Explicit round budget wins.
	c := Config{Budget: 1000, RoundBudget: 100}
	if c.roundBudget() != 100 {
		t.Errorf("explicit round budget ignored")
	}
	// Default is budget/8 (the 6-hours-of-48 analogue).
	c = Config{Budget: 800}
	if c.roundBudget() != 100 {
		t.Errorf("default round budget = %d, want 100", c.roundBudget())
	}
	// Tiny budgets degenerate to a single round.
	c = Config{Budget: 4}
	if c.roundBudget() != 4 {
		t.Errorf("tiny budget round = %d, want 4", c.roundBudget())
	}
}

func TestAllNamesStable(t *testing.T) {
	want := []Name{Path, PCGuard, Cull, Opp, CullR, PathAFL, AFL}
	if len(AllNames) != len(want) {
		t.Fatalf("AllNames has %d entries", len(AllNames))
	}
	for i, n := range want {
		if AllNames[i] != n {
			t.Errorf("AllNames[%d] = %s, want %s", i, AllNames[i], n)
		}
	}
	// The extensions stay out of the paper's configuration list.
	for _, ext := range []Name{Path2, Selective} {
		for _, n := range AllNames {
			if ext == n {
				t.Errorf("extension %s leaked into AllNames", ext)
			}
		}
	}
}

func TestUnknownNameError(t *testing.T) {
	err := &UnknownNameError{Name: "wat"}
	if err.Error() == "" || err.Error() == "wat" {
		t.Errorf("error text: %q", err.Error())
	}
}
