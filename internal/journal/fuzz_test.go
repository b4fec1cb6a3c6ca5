package journal

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzJournalSegments feeds hostile bytes to the two readers of an
// on-disk journal: ReadDir, and Open's torn-tail recovery. The bytes
// are the newest segment, alone or after an intact older one. Neither
// reader may panic, and a directory ReadDir reports OK must survive a
// reopen: after Open, one Emit and Close, ReadDir still reports it OK
// and returns every event it returned before, then the emitted one.
func FuzzJournalSegments(f *testing.F) {
	// A short flvmeta campaign's journal (pafuzz -budget 3000 -seed 5).
	campaign, err := os.ReadFile(filepath.Join("testdata", "campaign.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(campaign, false)
	f.Add(campaign[:len(campaign)-9], false) // torn tail
	f.Add(append(campaign, "not json\n"...), false)
	f.Add([]byte(`{"seq":4,"v":1,"kind":"cycle","worker":0,"execs":9,"cycle":1}`+"\n"), true)
	f.Add([]byte{}, true)
	older := []byte(`{"seq":1,"v":1,"kind":"start","worker":0,"execs":1,"feedback":"path","engine":"bytecode","seed":5}
{"seq":2,"v":1,"kind":"calibrate","worker":0,"execs":1,"stage":"seed","status":"ok","admitted":true}
{"seq":3,"v":1,"kind":"novelty","worker":0,"execs":2,"stage":"havoc","entry":1,"parent":0,"cells":[7],"cov":1}
`)
	f.Fuzz(func(t *testing.T, data []byte, twoSegments bool) {
		dir := t.TempDir()
		newest := segName(1)
		if twoSegments {
			if err := os.WriteFile(filepath.Join(dir, segName(1)), older, 0o644); err != nil {
				t.Fatal(err)
			}
			newest = segName(2)
		}
		if err := os.WriteFile(filepath.Join(dir, newest), data, 0o644); err != nil {
			t.Fatal(err)
		}
		before, diag, err := ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if !diag.OK() {
			if w, err := Open(dir, Options{}); err == nil {
				w.Close()
			}
			return
		}
		w, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("Open of a journal ReadDir reports OK: %v", err)
		}
		w.Emit(Event{Kind: KindCycle, Worker: 1, Execs: 7, Cycle: 3})
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		after, diag, err := ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if !diag.OK() {
			t.Fatalf("reopened journal not OK: errors=%v gaps=%v", diag.Errors, diag.Gaps)
		}
		if len(after) != len(before)+1 {
			t.Fatalf("%d events after one Emit, %d before", len(after), len(before))
		}
		for i := range before {
			if !reflect.DeepEqual(after[i], before[i]) {
				t.Fatalf("event %d changed on reopen: %+v, was %+v", i, after[i], before[i])
			}
		}
		if last := after[len(after)-1]; last.Kind != KindCycle || last.Worker != 1 || last.Execs != 7 || last.Cycle != 3 {
			t.Fatalf("journal ends with %+v, not the emitted event", last)
		}
	})
}
