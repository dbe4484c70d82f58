package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestMain lets the test binary re-exec itself as the gctrace CLI, so the
// tests exercise the real main() including cliutil.Fatal's os.Exit paths.
func TestMain(m *testing.M) {
	if os.Getenv("GCSIM_RUN_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// runGctrace re-execs this test binary as gctrace with the given arguments.
func runGctrace(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "GCSIM_RUN_MAIN=1")
	var so, se bytes.Buffer
	cmd.Stdout, cmd.Stderr = &so, &se
	err := cmd.Run()
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("gctrace %v: %v", args, err)
		}
		code = ee.ExitCode()
	}
	return code, so.String(), se.String()
}

// mustRun runs gctrace and fails the test unless it exits 0.
func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	code, stdout, stderr := runGctrace(t, args...)
	if code != 0 {
		t.Fatalf("gctrace %v exited %d: %s", args, code, stderr)
	}
	return stdout
}

// refCount returns the reference count of the stdout line starting with
// verb ("captured" or "replayed").
func refCount(t *testing.T, stdout, verb string) string {
	t.Helper()
	m := regexp.MustCompile(`(?m)^` + verb + ` (\d+) references`).FindStringSubmatch(stdout)
	if m == nil {
		t.Fatalf("no %q line in:\n%s", verb, stdout)
	}
	return m[1]
}

// cacheLines returns replay's per-cache result lines, in order.
func cacheLines(stdout string) []string {
	var lines []string
	for _, line := range strings.Split(stdout, "\n") {
		if strings.Contains(line, " misses: ") {
			lines = append(lines, line)
		}
	}
	return lines
}

// TestCaptureReplay captures tc, then replays every reference of it: into
// 2 sizes x 3 block sizes with the lanes inline and sharded on two workers
// behind two decoders, whose per-cache lines must be identical and whose
// strip filter must read every reference once, and into the null consumer.
func TestCaptureReplay(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "tc.trace")
	out := mustRun(t, "-capture", trace, "-workload", "tc", "-scale", "2", "-gc", "cheney")
	refs := refCount(t, out, "captured")

	var want []string
	for _, parallel := range []string{"1", "2"} {
		out := mustRun(t, "-replay", trace, "-cache", "32k,64k", "-block", "16,64,256", "-parallel", parallel)
		if got := refCount(t, out, "replayed"); got != refs {
			t.Errorf("-parallel %s replayed %s references, captured %s", parallel, got, refs)
		}
		// The bank's one filter reads every reference once, however many
		// workers its lanes are dealt to.
		m := regexp.MustCompile(`(?m)^stages: .* strip_offered=(\d+) strip_kept=\d+$`).FindStringSubmatch(out)
		if m == nil {
			t.Errorf("-parallel %s: no stages line with strip counts in:\n%s", parallel, out)
		} else if m[1] != refs {
			t.Errorf("-parallel %s: strip_offered=%s, want the %s replayed references", parallel, m[1], refs)
		}
		lines := cacheLines(out)
		if len(lines) != 6 {
			t.Fatalf("-parallel %s printed %d cache lines, want 6:\n%s", parallel, len(lines), out)
		}
		if want == nil {
			want = lines
		} else if !slices.Equal(lines, want) {
			t.Errorf("-parallel %s cache lines differ from -parallel 1's:\n%s\nwant:\n%s",
				parallel, strings.Join(lines, "\n"), strings.Join(want, "\n"))
		}
	}

	out = mustRun(t, "-replay", trace, "-cache", "none")
	if got := refCount(t, out, "replayed"); got != refs || !strings.Contains(out, "null consumer") {
		t.Errorf("-cache none replayed %s references, captured %s:\n%s", got, refs, out)
	}
}

// TestReplayRefusesV1 pins the retired format's refusal: a file with a
// format-v1 header fails with exit 1 and says to re-capture it.
func TestReplayRefusesV1(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "old.trace")
	if err := os.WriteFile(trace, append([]byte("GCSIMTRACE1\n"), make([]byte, 64)...), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runGctrace(t, "-replay", trace)
	if code != 1 || !strings.Contains(stderr, "re-capture with gctrace -capture") {
		t.Errorf("v1 replay exited %d, stderr %q, want 1 and a re-capture message", code, stderr)
	}
	if stdout != "" {
		t.Errorf("v1 replay printed %q", stdout)
	}
}
