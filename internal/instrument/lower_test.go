package instrument

import (
	"sync"
	"testing"

	"repro/internal/subjects"
)

// TestCompiledForMemoized asserts the compile-once contract: repeated
// and concurrent lookups for the same (program, feedback) return the
// identical *bytecode.Program, so a process compiles each
// subject at most once per feedback no matter how many fuzzers,
// resumes, or eval workers share it.
func TestCompiledForMemoized(t *testing.T) {
	prog, err := subjects.Get("cflow").Program()
	if err != nil {
		t.Fatal(err)
	}
	for _, fb := range []Feedback{FeedbackEdge, FeedbackPath, FeedbackPathAFL, FeedbackPath2, FeedbackSelective} {
		first, ok := CompiledFor(fb, prog, Config{})
		if !ok {
			t.Fatalf("%v: no lowering", fb)
		}
		var wg sync.WaitGroup
		ptrs := make([]interface{}, 16)
		for i := range ptrs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				cp, _ := CompiledFor(fb, prog, Config{})
				ptrs[i] = cp
			}(i)
		}
		wg.Wait()
		for i, p := range ptrs {
			if p != interface{}(first) {
				t.Fatalf("%v: call %d returned a different compiled program pointer", fb, i)
			}
		}
	}
}

// TestCompiledForKeyedByConfig asserts the compile cache key separates
// feedbacks: distinct feedbacks of one program get distinct
// compilations (TestCompiledForMemoized covers equal keys).
func TestCompiledForKeyedByConfig(t *testing.T) {
	prog, err := subjects.Get("cflow").Program()
	if err != nil {
		t.Fatal(err)
	}
	path, _ := CompiledFor(FeedbackPath, prog, Config{})
	if edge, _ := CompiledFor(FeedbackEdge, prog, Config{}); edge == path {
		t.Fatal("distinct feedbacks share a compilation")
	}
}

// TestCompiledForEveryFeedback pins that every feedback New accepts
// has a lowering, and that only an unknown one reports none.
func TestCompiledForEveryFeedback(t *testing.T) {
	prog, err := subjects.Get("cflow").Program()
	if err != nil {
		t.Fatal(err)
	}
	for i := range feedbackNames {
		fb := Feedback(i)
		if cp, ok := CompiledFor(fb, prog, Config{}); !ok || cp == nil {
			t.Errorf("%v: no bytecode lowering", fb)
		}
	}
	if cp, ok := CompiledFor(Feedback(99), prog, Config{}); ok || cp != nil {
		t.Error("unknown feedback lowered")
	}
}
