// Package analysistest runs an analyzer over fixture packages and
// checks its diagnostics against expectations written in the fixture
// sources, mirroring golang.org/x/tools/go/analysis/analysistest on
// the standard library.
//
// An expectation is a comment of the form
//
//	code() // want "regexp"
//	code() // want "first" "second"
//
// where each quoted (or backquoted) regular expression must match the
// message of a distinct diagnostic reported on that line, and every
// diagnostic on a line must be matched by an expectation. //lint:allow
// suppressions are honored exactly as the udmlint driver honors them,
// so fixtures can also pin the suppression behavior.
package analysistest

import (
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"udm/internal/analysis"
	"udm/internal/analysis/load"
)

var wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)

// Run loads the packages matched by patterns in the module rooted at
// dir, applies the analyzer, and reports any mismatch between its
// diagnostics and the // want expectations in the loaded sources.
func Run(t *testing.T, dir string, a *analysis.Analyzer, patterns ...string) {
	t.Helper()
	pkgs, err := load.Packages(dir, patterns...)
	if err != nil {
		t.Fatalf("loading fixture packages: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("no packages matched %v under %s", patterns, dir)
	}
	findings, err := analysis.Run(pkgs, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	type key struct {
		file string
		line int
	}
	wants := map[key][]*regexp.Regexp{}
	for _, pkg := range pkgs {
		for _, file := range pkg.Syntax {
			name := pkg.Fset.Position(file.Pos()).Filename
			src, err := os.ReadFile(name)
			if err != nil {
				t.Fatalf("reading fixture %s: %v", name, err)
			}
			for i, line := range strings.Split(string(src), "\n") {
				m := wantRe.FindStringSubmatch(line)
				if m == nil {
					continue
				}
				patterns, err := parseWant(m[1])
				if err != nil {
					t.Fatalf("%s:%d: %v", name, i+1, err)
				}
				wants[key{name, i + 1}] = append(wants[key{name, i + 1}], patterns...)
			}
		}
	}

	for _, f := range findings {
		k := key{f.Pos.Filename, f.Pos.Line}
		matched := -1
		for i, re := range wants[k] {
			if re.MatchString(f.Message) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("%s: unexpected diagnostic: [%s] %s", f.Pos, f.Analyzer, f.Message)
			continue
		}
		wants[k] = append(wants[k][:matched], wants[k][matched+1:]...)
	}
	for k, res := range wants {
		for _, re := range res {
			t.Errorf("%s:%d: no diagnostic matching %q", k.file, k.line, re)
		}
	}
}

// parseWant splits the payload of a // want comment into compiled
// regular expressions. Patterns are Go-quoted strings or backquoted
// raw strings, separated by spaces.
func parseWant(s string) ([]*regexp.Regexp, error) {
	var out []*regexp.Regexp
	s = strings.TrimSpace(s)
	for s != "" {
		var raw string
		switch s[0] {
		case '"':
			end := -1
			for i := 1; i < len(s); i++ {
				if s[i] == '"' && s[i-1] != '\\' {
					end = i
					break
				}
			}
			if end < 0 {
				return nil, fmt.Errorf("unterminated want pattern %q", s)
			}
			unq, err := strconv.Unquote(s[:end+1])
			if err != nil {
				return nil, fmt.Errorf("bad want pattern %q: %v", s[:end+1], err)
			}
			raw, s = unq, s[end+1:]
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				return nil, fmt.Errorf("unterminated want pattern %q", s)
			}
			raw, s = s[1:end+1], s[end+2:]
		default:
			return nil, fmt.Errorf("want pattern must be quoted or backquoted, got %q", s)
		}
		re, err := regexp.Compile(raw)
		if err != nil {
			return nil, fmt.Errorf("bad want regexp %q: %v", raw, err)
		}
		out = append(out, re)
		s = strings.TrimSpace(s)
	}
	return out, nil
}
