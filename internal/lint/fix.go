package lint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/format"
	"go/printer"
	"go/token"
	"go/types"
	"os"
	"sort"
	"strings"
)

// TextEdit replaces the source range [Pos, End) with NewText. A zero-width
// range (Pos == End) is an insertion.
type TextEdit struct {
	Pos, End token.Pos
	NewText  string
}

// Fix is a mechanical rewrite attached to a finding. Fixes are reserved
// for the classes where the correct edit is unambiguous — preallocation
// hints, sorting a map-range emission, nolint normalization — never for
// anything requiring judgment.
type Fix struct {
	// Message describes the rewrite, shown by bslint -fix.
	Message string
	// Edits are the byte-range replacements; they must not overlap.
	Edits []TextEdit
}

// ApplyFixes applies every suggested fix in findings to the files on
// disk, reformatting each rewritten file with go/format. Identical edits
// (two findings prescribing the same insertion) are deduplicated, and an
// edit overlapping an already-applied one is skipped rather than
// corrupting the file. Files are rewritten in sorted order, and the
// rewritten paths are returned in that order.
func ApplyFixes(fset *token.FileSet, findings []Finding) ([]string, error) {
	type edit struct {
		start, end int // byte offsets
		text       string
	}
	byFile := map[string][]edit{}
	for _, f := range findings {
		if f.Fix == nil {
			continue
		}
		for _, e := range f.Fix.Edits {
			start := fset.Position(e.Pos)
			end := start
			if e.End.IsValid() {
				end = fset.Position(e.End)
			}
			if end.Filename != start.Filename {
				return nil, fmt.Errorf("lint: fix for %s spans files", f.Check)
			}
			byFile[start.Filename] = append(byFile[start.Filename], edit{start.Offset, end.Offset, e.NewText})
		}
	}

	// Rewrite files in name order, so an error stops at the same file, with
	// the same files already rewritten, on every run.
	names := make([]string, 0, len(byFile))
	for name := range byFile {
		names = append(names, name)
	}
	sort.Strings(names)
	var files []string
	for _, name := range names {
		edits := byFile[name]
		src, err := os.ReadFile(name)
		if err != nil {
			return files, err
		}
		// Deduplicate, then apply back to front so earlier offsets stay
		// valid.
		sort.Slice(edits, func(i, j int) bool {
			if edits[i].start != edits[j].start {
				return edits[i].start > edits[j].start
			}
			return edits[i].end > edits[j].end
		})
		applied := edits[:0]
		lastStart := len(src) + 1
		for _, e := range edits {
			if len(applied) > 0 {
				prev := applied[len(applied)-1]
				if prev.start == e.start && prev.end == e.end && prev.text == e.text {
					continue // duplicate
				}
				if e.end > lastStart {
					continue // overlap with an already-applied edit
				}
			}
			applied = append(applied, e)
			lastStart = e.start
		}
		out := src
		for _, e := range applied {
			if e.start < 0 || e.end > len(out) || e.start > e.end {
				return files, fmt.Errorf("lint: fix offset out of range in %s", name)
			}
			out = append(out[:e.start], append([]byte(e.text), out[e.end:]...)...)
		}
		formatted, err := format.Source(out)
		if err != nil {
			return files, fmt.Errorf("lint: fixed %s does not format: %w", name, err)
		}
		if err := os.WriteFile(name, formatted, 0o644); err != nil {
			return files, err
		}
		files = append(files, name)
	}
	return files, nil
}

// nodeText renders an AST node back to source, for fixes that need to
// restate part of the original (e.g. a slice's element type).
func nodeText(fset *token.FileSet, n ast.Node) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, n); err != nil {
		return ""
	}
	return buf.String()
}

// fileOf returns the parsed file containing pos.
func fileOf(pkg *Package, pos token.Pos) *ast.File {
	for _, f := range pkg.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// importEdit returns an edit adding an import of path to the file
// containing pos, or a zero Fix-less nil slice when the file already
// imports it.
func importEdit(pkg *Package, pos token.Pos, path string) []TextEdit {
	file := fileOf(pkg, pos)
	if file == nil {
		return nil
	}
	for _, imp := range file.Imports {
		if strings.Trim(imp.Path.Value, `"`) == path {
			return nil
		}
	}
	// Prefer extending an existing import block; otherwise add a new
	// import statement after the package clause.
	for _, decl := range file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.IMPORT {
			continue
		}
		if gd.Lparen.IsValid() {
			return []TextEdit{{Pos: gd.Lparen + 1, End: gd.Lparen + 1, NewText: "\n\t\"" + path + "\""}}
		}
		return []TextEdit{{Pos: gd.End(), End: gd.End(), NewText: "\nimport \"" + path + "\""}}
	}
	return []TextEdit{{Pos: file.Name.End(), End: file.Name.End(), NewText: "\n\nimport \"" + path + "\""}}
}

// mapOrderFix builds the rewrite for an unsorted map-range emission when
// the element type has a canonical sort call: insert sort.Strings /
// sort.Ints after the loop (plus the sort import if missing). Other
// element types need a comparator, which is judgment, not mechanics.
func mapOrderFix(pkg *Package, fd *ast.FuncDecl, site mapOrderSite) *Fix {
	t := site.obj.Type()
	slice, ok := t.Underlying().(*types.Slice)
	if !ok {
		return nil
	}
	var call string
	switch b, ok := slice.Elem().Underlying().(*types.Basic); {
	case ok && b.Kind() == types.String:
		call = "sort.Strings"
	case ok && b.Kind() == types.Int:
		call = "sort.Ints"
	default:
		return nil
	}
	edits := []TextEdit{{
		Pos:     site.rng.End(),
		End:     site.rng.End(),
		NewText: "\n" + call + "(" + site.obj.Name() + ")",
	}}
	edits = append(edits, importEdit(pkg, site.rng.Pos(), "sort")...)
	return &Fix{
		Message: "insert " + call + "(" + site.obj.Name() + ") after the map range",
		Edits:   edits,
	}
}
