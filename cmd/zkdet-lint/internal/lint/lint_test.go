package lint

import (
	"bufio"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixtureDir locates cmd/zkdet-lint/testdata/src/<name>.
func fixtureDir(t *testing.T, name string) string {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("..", "..", "testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("fixture %s: %v", name, err)
	}
	return dir
}

// wantedDiags parses `// want "substring"` expectations: line → substrings.
func wantedDiags(t *testing.T, dir string) map[string][]string {
	t.Helper()
	want := map[string][]string{}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		line := 0
		for sc.Scan() {
			line++
			text := sc.Text()
			idx := strings.Index(text, `// want `)
			if idx < 0 {
				continue
			}
			rest := text[idx+len(`// want `):]
			if len(rest) < 2 || (rest[0] != '"' && rest[0] != '`') {
				t.Fatalf("%s:%d: malformed want comment", e.Name(), line)
			}
			quote := rest[0]
			rest = rest[1:]
			end := strings.LastIndexByte(rest, quote)
			if end < 0 {
				t.Fatalf("%s:%d: malformed want comment", e.Name(), line)
			}
			key := filepath.Join(dir, e.Name()) + ":" + itoa(line)
			want[key] = append(want[key], rest[:end])
		}
		f.Close()
	}
	return want
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// runFixture loads one fixture package and checks the analyzer's
// diagnostics exactly match the // want expectations.
func runFixture(t *testing.T, analyzer *Analyzer, fixture string) {
	t.Helper()
	dir := fixtureDir(t, fixture)
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(dir, "fixture/"+fixture)
	if err != nil {
		t.Fatal(err)
	}
	checkWants(t, dir, RunAnalyzers([]*Package{pkg}, []*Package{pkg}, []*Analyzer{analyzer}))
}

// checkWants checks diags exactly match the // want expectations of the
// Go files in dir.
func checkWants(t *testing.T, dir string, diags []Diagnostic) {
	t.Helper()
	want := wantedDiags(t, dir)
	matched := map[string]int{}
	for _, d := range diags {
		key := d.Pos.Filename + ":" + itoa(d.Pos.Line)
		subs := want[key]
		found := false
		for _, sub := range subs {
			if strings.Contains(d.Message, sub) {
				found = true
				matched[key]++
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for key, subs := range want {
		if matched[key] < len(subs) {
			t.Errorf("missing diagnostic at %s (want %q, matched %d)", key, subs, matched[key])
		}
	}
}

func TestCryptoCompareFixture(t *testing.T) { runFixture(t, CryptoCompare, "cryptocompare") }
func TestErrCompareFixture(t *testing.T)    { runFixture(t, ErrCompare, "errcompare") }
func TestSecretScopeFixture(t *testing.T)   { runFixture(t, SecretScope, "secretscope") }
func TestGasPurityFixture(t *testing.T)     { runFixture(t, GasPurity, "gaspurity") }
func TestLockGuardFixture(t *testing.T)     { runFixture(t, LockGuard, "lockguard") }
func TestPanicFreeFixture(t *testing.T)     { runFixture(t, PanicFree, "panicfree") }
func TestDetReplayFixture(t *testing.T)     { runFixture(t, DetReplay, "detreplay") }

// TestTestOnlyFixture runs testonly on one internal package of a fixture
// module (testdata/src/testonly has its own go.mod). The other packages are
// not reported on, but their references count: lib's declarations that
// user reaches stay silent, while the one the user package's tests would
// need is kept by its directive.
func TestTestOnlyFixture(t *testing.T) {
	loader, err := NewLoader(fixtureDir(t, "testonly"))
	if err != nil {
		t.Fatal(err)
	}
	module, err := loader.LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	var lib *Package
	for _, pkg := range module {
		if pkg.Path == "fixture/testonly/internal/lib" {
			lib = pkg
		}
	}
	if lib == nil || len(module) != 3 {
		t.Fatalf("loaded %d packages without internal/lib; want lib, other and user", len(module))
	}
	checkWants(t, lib.Dir, RunAnalyzers(module, []*Package{lib}, []*Analyzer{TestOnly}))
}

// TestTestOnlyOtherArchitecture loads buildsplit as an internal package:
// plain is called only from add_other.go, which an amd64 build leaves out,
// and must not be flagged there.
func TestTestOnlyOtherArchitecture(t *testing.T) {
	dir := fixtureDir(t, "buildsplit")
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(dir, "fixture/internal/buildsplit")
	if err != nil {
		t.Fatal(err)
	}
	checkWants(t, dir, RunAnalyzers([]*Package{pkg}, []*Package{pkg}, []*Analyzer{TestOnly}))
}

// TestLoadHonoursBuildConstraints loads a package whose add is declared
// once per architecture (add_amd64.go, body-less and backed by assembly, and
// add_other.go behind //go:build !amd64). The loader must select files as
// the go command does — parsing both twins is a redeclaration error — and
// every analyzer must cope with the body-less declaration.
func TestLoadHonoursBuildConstraints(t *testing.T) {
	dir := fixtureDir(t, "buildsplit")
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(dir, "fixture/buildsplit")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.Files) != 2 {
		t.Errorf("loaded %d files, want sum.go and one add_*.go", len(pkg.Files))
	}
	if pkg.Types.Scope().Lookup("add") == nil || pkg.Types.Scope().Lookup("kernel") == nil {
		t.Error("neither architecture's add/kernel was loaded")
	}
	for _, d := range RunAnalyzers([]*Package{pkg}, []*Package{pkg}, All()) {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}

// TestSuppression proves //lint:ignore silences a finding only when it
// carries a justification.
func TestSuppression(t *testing.T) {
	dir := fixtureDir(t, "suppression")
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(dir, "fixture/suppression")
	if err != nil {
		t.Fatal(err)
	}
	diags := RunAnalyzers([]*Package{pkg}, []*Package{pkg}, []*Analyzer{PanicFree})
	var got []string
	for _, d := range diags {
		got = append(got, d.Analyzer)
	}
	// One unsuppressed panic finding plus one bare-directive complaint; the
	// justified suppression stays silent.
	if len(diags) != 2 {
		t.Fatalf("want 2 diagnostics (panicfree + bare directive), got %d: %v", len(diags), diags)
	}
	seen := map[string]bool{}
	for _, d := range diags {
		seen[d.Analyzer] = true
	}
	if !seen["panicfree"] || !seen["lint"] {
		t.Fatalf("want one panicfree and one lint diagnostic, got %v", got)
	}
}

// TestRepoIsClean runs the full suite over the repository — the same gate
// as `make lint` — so a regression anywhere in internal/ fails the test
// suite, not just the Makefile target.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-repo lint is not short")
	}
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	module, err := loader.LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range RunAnalyzers(module, module, All()) {
		t.Errorf("%s", d)
	}
}
