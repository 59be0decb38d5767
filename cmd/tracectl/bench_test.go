package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeBench(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestBenchCompareFailsOnDroppedGatedField pins the gate hole: a gated
// field present in only one of the two files must fail the compare in
// either direction, while an ungated one-sided field stays informational.
func TestBenchCompareFailsOnDroppedGatedField(t *testing.T) {
	const meta = `"meta":{"schema":1,"bench":"profile","seed":1,"n":100}`
	full := writeBench(t, "full.json",
		`{`+meta+`,"runs":[{"rounds":5,"interior_activations":40,"seconds":1.5}]}`)
	dropped := writeBench(t, "dropped.json",
		`{`+meta+`,"runs":[{"rounds":5,"seconds":1.5}]}`)
	untimed := writeBench(t, "untimed.json",
		`{`+meta+`,"runs":[{"rounds":5,"interior_activations":40}]}`)

	if err := cmdBenchCompare([]string{"-quiet", full, full}); err != nil {
		t.Fatalf("identical files must pass: %v", err)
	}
	for _, tc := range []struct{ old, new string }{{full, dropped}, {dropped, full}} {
		err := cmdBenchCompare([]string{"-quiet", tc.old, tc.new})
		if err == nil || !strings.Contains(err.Error(), "missing from one side") {
			t.Fatalf("compare %s -> %s: a one-sided gated field must fail, got %v",
				filepath.Base(tc.old), filepath.Base(tc.new), err)
		}
	}
	if err := cmdBenchCompare([]string{"-quiet", full, untimed}); err != nil {
		t.Fatalf("a one-sided ungated field must not fail the gate: %v", err)
	}
}
