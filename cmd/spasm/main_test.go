package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeProg(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "p.svasm")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestAssembleDisassembleRun(t *testing.T) {
	path := writeProg(t, "main:\n li r1, 1\n li r2, 3\n syscall\n")
	if err := run([]string{"-d", "-run", path}); err != nil {
		t.Fatal(err)
	}
}

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := fn()
	os.Stdout = old
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

// lintCorpus holds one hand-corrupted program per call-graph verifier
// diagnostic. Every diagnostic is a warning, so -lint succeeds
// but must print the rule slug with a resolvable file:line (via the
// assembler's line map).
var lintCorpus = []struct {
	name string
	code string // rule slug expected in the output
	src  string
}{
	{
		name: "unreachable function",
		code: "unreachable-fn",
		// deadfn is function-shaped (it returns) but precedes the entry
		// with no call edge reaching it.
		src: `	.entry main
deadfn:
	addi r3, r0, 7
	ret
main:
	li r1, 1
	li r2, 0
	syscall
`,
	},
	{
		name: "call imbalance",
		code: "call-imbalance",
		// f pushes 8 bytes and returns without popping them.
		src: `	.entry main
main:
	call f
	li r1, 1
	li r2, 0
	syscall
f:
	subi r29, r29, 8
	ret
`,
	},
}

// TestLintInterprocDiagnostics runs -lint over the corrupted corpus and
// demands each program surfaces its diagnostic, slug and source line
// included.
func TestLintInterprocDiagnostics(t *testing.T) {
	for _, tc := range lintCorpus {
		tc := tc
		t.Run(tc.code, func(t *testing.T) {
			path := writeProg(t, tc.src)
			out, err := captureStdout(t, func() error {
				return run([]string{"-lint", path})
			})
			if err != nil {
				t.Fatalf("%s: lint failed: %v\n%s", tc.name, err, out)
			}
			if !strings.Contains(out, tc.code) {
				t.Fatalf("%s: output does not mention %q:\n%s", tc.name, tc.code, out)
			}
			// The diagnostic must resolve to a source line: the slug's
			// line must carry the file:line prefix, not the bare-address
			// fallback form.
			found := false
			for _, line := range strings.Split(out, "\n") {
				if strings.Contains(line, tc.code) && strings.Contains(line, path+":") {
					found = true
				}
			}
			if !found {
				t.Fatalf("%s: diagnostic not resolved to a source line:\n%s", tc.name, out)
			}
		})
	}
}

func TestErrors(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Fatal("missing file accepted")
	}
	if err := run([]string{"/does/not/exist.svasm"}); err == nil {
		t.Fatal("nonexistent file accepted")
	}
	bad := writeProg(t, "frobnicate r1\n")
	if err := run([]string{bad}); err == nil {
		t.Fatal("bad assembly accepted")
	}
}
