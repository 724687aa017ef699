package pubsub_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestMakeAndCINamesExist: `go test -run X` and `go test -fuzz X` pass
// silently when nothing is called X, so a renamed or deleted test would
// quietly drop out of the gates that name it. Every test, fuzz and
// benchmark name spelled out in a `go test` line of the Makefile or the CI
// workflow must be declared in a package that line runs, and every fuzz
// target in the tree must be listed in a Makefile -fuzz line (fuzz-smoke).
func TestMakeAndCINamesExist(t *testing.T) {
	funcs := testFuncs(t)
	makeLines := goTestLines(t, "Makefile", "$(GO) test")
	lines := append(makeLines, goTestLines(t, filepath.Join(".github", "workflows", "ci.yml"), "go test")...)
	named := 0
	for _, l := range lines {
		for _, name := range l.names {
			named++
			if !declared(funcs, l.pkgs, name) {
				t.Errorf("%s: %s is declared in none of %v", l.where, name, l.pkgs)
			}
		}
	}
	// The alloc-regression line alone names eight tests: fewer means the
	// parse, not the tree, went wrong.
	if named < 8 {
		t.Fatalf("parsed only %d names from %d go test lines", named, len(lines))
	}

	smoke := map[string]bool{} // "dir.Name" of every fuzz-smoke target
	for _, l := range makeLines {
		if !l.fuzz {
			continue
		}
		for _, name := range l.names {
			for _, p := range l.pkgs {
				smoke[pkgDir(p)+"."+name] = true
			}
		}
	}
	for dir, names := range funcs {
		for name := range names {
			if strings.HasPrefix(name, "Fuzz") && !smoke[dir+"."+name] {
				t.Errorf("%s.%s is missing from the Makefile's fuzz-smoke", dir, name)
			}
		}
	}
}

// goTestLine is one `go test` invocation: the names its -run, -fuzz and
// -bench patterns spell out, whether it fuzzes, and the packages it runs in.
type goTestLine struct {
	where string
	fuzz  bool
	names []string
	pkgs  []string
}

var (
	patternFlag = regexp.MustCompile(`(-(?:run|fuzz|bench))[ =]'([^']*)'`)
	wholeName   = regexp.MustCompile(`^(?:Test|Fuzz|Benchmark)\w+$`)
	testFunc    = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w+)\(`)
)

// goTestLines returns every line of file that contains cmd, with make's $$
// unescaped. A pattern alternative that is a whole test, fuzz or benchmark
// name once ^ and $ are trimmed names a function the line expects to
// exist; other alternatives are substring filters and name nothing.
func goTestLines(t *testing.T, file, cmd string) []goTestLine {
	t.Helper()
	b, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var out []goTestLine
	for i, line := range strings.Split(string(b), "\n") {
		if !strings.Contains(line, cmd) {
			continue
		}
		line = strings.ReplaceAll(line, "$$", "$")
		l := goTestLine{where: file + ":" + strconv.Itoa(i+1)}
		for _, m := range patternFlag.FindAllStringSubmatch(line, -1) {
			l.fuzz = l.fuzz || m[1] == "-fuzz"
			for _, alt := range strings.Split(m[2], "|") {
				if name := strings.Trim(alt, "^$"); wholeName.MatchString(name) {
					l.names = append(l.names, name)
				}
			}
		}
		for _, f := range strings.Fields(line) {
			if f == "." || strings.HasPrefix(f, "./") {
				l.pkgs = append(l.pkgs, f)
			}
		}
		out = append(out, l)
	}
	return out
}

// testFuncs maps each package directory of the module ("." for the root,
// "internal/core", ...) to the Test, Fuzz and Benchmark functions its test
// files declare. The nested bench module is not part of it.
func testFuncs(t *testing.T) map[string]map[string]bool {
	t.Helper()
	funcs := map[string]map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
			if funcs[dir] == nil {
				funcs[dir] = map[string]bool{}
			}
			funcs[dir][m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs
}

// pkgDir turns a package argument ("./internal/core/", ".") into the
// directory key testFuncs uses; a "/..." pattern keeps its suffix.
func pkgDir(arg string) string {
	p := strings.TrimSuffix(strings.TrimPrefix(arg, "./"), "/")
	if p == "" {
		return "."
	}
	return p
}

// declared reports whether a package the line runs declares name. A line
// without package arguments runs the root package.
func declared(funcs map[string]map[string]bool, pkgs []string, name string) bool {
	if len(pkgs) == 0 {
		pkgs = []string{"."}
	}
	for _, arg := range pkgs {
		p := pkgDir(arg)
		for dir, names := range funcs {
			covered := dir == p
			if prefix, ok := strings.CutSuffix(p, "..."); ok {
				covered = prefix == "" || dir+"/" == prefix || strings.HasPrefix(dir, prefix)
			}
			if covered && names[name] {
				return true
			}
		}
	}
	return false
}
