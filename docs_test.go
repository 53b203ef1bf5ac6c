package cpr

import (
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestDocIdentifiers holds DESIGN.md and README.md to the code: every
// backticked Go name in them — `Name`, `pkg.Name`, `Type.Method()`, `helper` —
// names something in the repo's Go sources: an identifier, a package or file,
// or a word of a string literal (experiment, detector and workload names are
// strings). A name the code lost is a stale sentence; rename it or drop its
// backticks with the code.
func TestDocIdentifiers(t *testing.T) {
	known := map[string]bool{}
	word := regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			known[d.Name()] = true
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		known[strings.TrimSuffix(d.Name(), ".go")] = true
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var s scanner.Scanner
		s.Init(token.NewFileSet().AddFile(path, -1, len(src)), src, nil, 0)
		for {
			_, tok, lit := s.Scan()
			switch tok {
			case token.EOF:
				return nil
			case token.IDENT:
				known[lit] = true
			case token.STRING:
				if u, err := strconv.Unquote(lit); err == nil {
					for _, w := range word.FindAllString(u, -1) {
						known[w] = true
					}
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	// A Go name: dotted parts and an optional call. A snake_case span with no
	// upper-case letter is a metric name or a formula, not Go.
	goName := regexp.MustCompile("`((?:[A-Za-z_][A-Za-z0-9_]*\\.)*[A-Za-z_][A-Za-z0-9_]*)(?:\\(\\))?`")
	snake := regexp.MustCompile(`^[a-z0-9_.]*_[a-z0-9_.]*$`)
	fileExt := regexp.MustCompile(`\.(go|md|json|ya?ml|sh|txt|prom|mod)$`)
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		var stale []string
		seen := map[string]bool{}
		for _, m := range goName.FindAllStringSubmatch(string(text), -1) {
			name := m[1]
			if seen[name] || fileExt.MatchString(name) || snake.MatchString(name) {
				continue
			}
			seen[name] = true
			for _, p := range strings.Split(name, ".") {
				if !known[p] {
					stale = append(stale, name)
					break
				}
			}
		}
		sort.Strings(stale)
		if len(stale) > 0 {
			t.Errorf("%s names %d things no Go source has: %v", doc, len(stale), stale)
		}
	}
}
