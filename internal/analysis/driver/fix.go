// The auto-fix engine behind `udmlint -fix`: apply every suggested fix
// whose edits do not conflict, gofmt the touched files, and re-run the
// analyzers until no fix applies — the fixed tree must itself be the
// fixed point, or the run fails.
package driver

import (
	"fmt"
	"go/format"
	"os"
	"sort"

	"udm/internal/analysis"
)

// selectFixes chooses a non-conflicting set of fixes from the findings.
// A fix is atomic — either all of its edits apply or none — and a later
// fix that overlaps an accepted edit is dropped (it gets its chance on
// the next round, after the first fix has been applied and the tree
// re-analyzed). Suppressed findings never reach this point: a
// //lint:allow is an explicit decision to keep the code as written.
func selectFixes(findings []analysis.Finding) (byFile map[string][]analysis.Edit, applied int) {
	byFile = map[string][]analysis.Edit{}
	conflicts := func(e analysis.Edit) bool {
		for _, p := range byFile[e.Filename] {
			if (e.Offset < p.End && p.Offset < e.End) || e.Offset == p.Offset {
				return true
			}
		}
		return false
	}
	for _, f := range findings {
		if len(f.Fixes) == 0 {
			continue
		}
		fix := f.Fixes[0]
		ok := len(fix.Edits) > 0
		for _, e := range fix.Edits {
			if conflicts(e) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, e := range fix.Edits {
			byFile[e.Filename] = append(byFile[e.Filename], e)
		}
		applied++
	}
	return byFile, applied
}

// applyEdits rewrites one file: splice the edits (descending, so
// offsets stay valid), then gofmt the result. The file is written only
// when the formatted result differs; a result that no longer formats is
// an engine bug and aborts without writing.
func applyEdits(filename string, edits []analysis.Edit) (changed bool, err error) {
	src, err := os.ReadFile(filename)
	if err != nil {
		return false, err
	}
	sort.Slice(edits, func(i, j int) bool { return edits[i].Offset > edits[j].Offset })
	out := src
	for _, e := range edits {
		if e.Offset < 0 || e.End < e.Offset || e.End > len(out) {
			return false, fmt.Errorf("fix: edit out of range in %s (offset %d..%d of %d bytes)", filename, e.Offset, e.End, len(out))
		}
		out = append(out[:e.Offset], append([]byte(e.NewText), out[e.End:]...)...)
	}
	formatted, err := format.Source(out)
	if err != nil {
		return false, fmt.Errorf("fix: %s does not parse after applying fixes (not written): %w", filename, err)
	}
	if string(formatted) == string(src) {
		return false, nil
	}
	info, err := os.Stat(filename)
	if err != nil {
		return false, err
	}
	return true, os.WriteFile(filename, formatted, info.Mode().Perm())
}

// fixRound applies one round of fixes and reports how many fixes were
// applied and how many files changed on disk.
func fixRound(findings []analysis.Finding) (applied, files int, err error) {
	byFile, applied := selectFixes(findings)
	if applied == 0 {
		return 0, 0, nil
	}
	for filename, edits := range byFile {
		changed, err := applyEdits(filename, edits)
		if err != nil {
			return 0, 0, err
		}
		if changed {
			files++
		}
	}
	return applied, files, nil
}
