package rpeer

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// testOnlyAllowed lists the functions and methods outside bench/ that
// no non-test file names but that stay, each with its reason. Keys are
// "package directory.Func" or "package directory.Type.Method"; an
// entry that production code does name fails the test, so the list
// holds only what it must.
var testOnlyAllowed = map[string]string{
	"internal/traix.Detector.DetectAll":        "test oracle: the full scan the crossing plane is held to",
	"internal/traix.Detector.DetectPrivateAll": "test oracle: the full scan private-link detection is held to",
	"internal/alias.NewResolver":               "test oracle: the sample-series resolver the probe plane is held to",
	"internal/alias.Prober.Probe":              "test oracle: the per-sample probe the sample-series resolver reads",
	"internal/wal.MemFS.Ops":                   "fault hook: counts the operations a crash matrix kills at",
	"internal/wal.MemFS.Crashed":               "fault hook: reports whether an injected crash fired",
	"internal/wal.MemFS.PowerFail":             "fault hook: drops unsynced bytes, as a power cut does",
	"internal/snapshot.Snap.Col":               "test accessor: one decoded column of a snapshot",
	"internal/pingsim.Overrides":               "test fixture: the core, rpi and pingsim tests fold a re-campaign into an RTT delta with it",
	"internal/core.Context.IncrementalRuns":    "test counter: which path each re-run took",
	"pkg/rpi.Engine.Checkpoint":                "SDK surface: an explicit snapshot for library callers",
	"pkg/rpi.WithLogger":                       "SDK surface: routes an engine's log lines",
	"pkg/rpi/serve.respWriter.Unwrap":          "called through an interface, by http.ResponseController",
}

// TestNoTestOnlyProductionCode fails on any function or method,
// outside bench/ and outside test files, whose name no non-test file
// of the repository uses (bench/, cmd/ and examples/ included), unless
// testOnlyAllowed lists it. Code that only tests call is either given
// a production use or moved into the tests. Names are matched by
// identifier, not by type, so a method shares its name with every
// other use of that identifier: the check misses some test-only code,
// but never flags code production names.
func TestNoTestOnlyProductionCode(t *testing.T) {
	type decl struct {
		key, name string
		pos       token.Position
	}
	fset := token.NewFileSet()
	uses := map[string]bool{}
	var decls []decl
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		own := map[*ast.Ident]bool{}
		for _, dd := range f.Decls {
			fn, ok := dd.(*ast.FuncDecl)
			if !ok || dir == "bench" || strings.HasPrefix(dir, "bench/") {
				continue
			}
			own[fn.Name] = true
			name := fn.Name.Name
			if name == "main" || name == "init" || name == "_" {
				continue
			}
			key := dir + "." + name
			if fn.Recv != nil {
				recv := strings.TrimPrefix(types.ExprString(fn.Recv.List[0].Type), "*")
				key = dir + "." + recv + "." + name
			}
			decls = append(decls, decl{key, name, fset.Position(fn.Pos())})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !own[id] {
				uses[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	unused := map[string]bool{}
	for _, d := range decls {
		if uses[d.name] {
			continue
		}
		unused[d.key] = true
		if testOnlyAllowed[d.key] == "" {
			t.Errorf("%s: %s: no non-test file names it; give it a production use or move it into the tests", d.pos, d.key)
		}
	}
	for key := range testOnlyAllowed {
		if !unused[key] {
			t.Errorf("allowlist entry %s is not a test-only function; drop the entry", key)
		}
	}
}
