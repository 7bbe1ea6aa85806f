// docs_check_test.go keeps the documentation honest: every relative
// markdown link in README.md and docs/ must resolve to a file in the
// repository, docs/FLAGS.md must agree with the binaries' actual flag
// sets, docs/EXPERIMENTS.md with the experiment registry, and the
// /v1/stats key table in docs/ARCHITECTURE.md with the json tags of
// core.Stats, each in both directions — a name documented but not
// defined is as much a failure as a name defined but not documented.
package bench

import (
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
)

// docFiles returns README.md plus every markdown file under docs/.
func docFiles(t *testing.T) []string {
	t.Helper()
	files := []string{"README.md"}
	entries, err := os.ReadDir("docs")
	if err != nil {
		t.Fatalf("reading docs/: %v", err)
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".md") {
			files = append(files, filepath.Join("docs", e.Name()))
		}
	}
	return files
}

// mdLinkRE matches the destination of an inline markdown link. External
// schemes and pure-anchor links are filtered by the caller.
var mdLinkRE = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// TestDocsLinksResolve asserts every relative link in README.md and
// docs/*.md points at a file or directory that exists, with anchors
// stripped and external URLs skipped.
func TestDocsLinksResolve(t *testing.T) {
	for _, doc := range docFiles(t) {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("reading %s: %v", doc, err)
		}
		for _, m := range mdLinkRE.FindAllStringSubmatch(string(data), -1) {
			dest := m[1]
			if strings.Contains(dest, "://") || strings.HasPrefix(dest, "mailto:") {
				continue
			}
			if i := strings.Index(dest, "#"); i >= 0 {
				dest = dest[:i]
			}
			if dest == "" { // same-page anchor
				continue
			}
			target := filepath.Join(filepath.Dir(doc), dest)
			if _, err := os.Stat(target); err != nil {
				t.Errorf("%s: link %q does not resolve (%v)", doc, m[1], err)
			}
		}
	}
}

// definedFlags extracts the flag names a binary registers by scanning
// its sources for flag.<Type>("name", ...) calls.
func definedFlags(t *testing.T, binary string) map[string]bool {
	t.Helper()
	re := regexp.MustCompile(`flag\.(?:String|Bool|Int64|Int|Uint64|Float64|Duration)\(\s*"([^"]+)"`)
	flags := map[string]bool{}
	srcs, err := filepath.Glob(filepath.Join("cmd", binary, "*.go"))
	if err != nil || len(srcs) == 0 {
		t.Fatalf("no sources for cmd/%s: %v", binary, err)
	}
	for _, src := range srcs {
		if strings.HasSuffix(src, "_test.go") {
			continue
		}
		data, err := os.ReadFile(src)
		if err != nil {
			t.Fatalf("reading %s: %v", src, err)
		}
		for _, m := range re.FindAllStringSubmatch(string(data), -1) {
			flags[m[1]] = true
		}
	}
	return flags
}

// documentedFlags parses docs/FLAGS.md into per-binary flag sets: a
// "## binary" heading opens a section, and each table row whose first
// cell is `-name` documents one flag.
func documentedFlags(t *testing.T) map[string]map[string]bool {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("docs", "FLAGS.md"))
	if err != nil {
		t.Fatalf("reading docs/FLAGS.md: %v", err)
	}
	rowRE := regexp.MustCompile("^\\| `-([a-z0-9-]+)` ")
	sections := map[string]map[string]bool{}
	var current string
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "## "); ok {
			current = strings.TrimSpace(name)
			sections[current] = map[string]bool{}
			continue
		}
		if m := rowRE.FindStringSubmatch(line); m != nil {
			if current == "" {
				t.Fatalf("docs/FLAGS.md: flag row %q before any binary heading", line)
			}
			sections[current][m[1]] = true
		}
	}
	return sections
}

// TestDocsFlagsMatchBinaries asserts docs/FLAGS.md and the binaries
// agree: one section per cmd/ binary, every documented flag defined,
// every defined flag documented.
func TestDocsFlagsMatchBinaries(t *testing.T) {
	documented := documentedFlags(t)

	entries, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatalf("reading cmd/: %v", err)
	}
	var binaries []string
	for _, e := range entries {
		if e.IsDir() {
			binaries = append(binaries, e.Name())
		}
	}

	for _, binary := range binaries {
		docs := documented[binary]
		if docs == nil {
			t.Errorf("docs/FLAGS.md: no section for cmd/%s", binary)
			continue
		}
		defined := definedFlags(t, binary)
		for _, name := range sorted(defined) {
			if !docs[name] {
				t.Errorf("cmd/%s defines -%s but docs/FLAGS.md does not document it", binary, name)
			}
		}
		for _, name := range sorted(docs) {
			if !defined[name] {
				t.Errorf("docs/FLAGS.md documents -%s for %s but the binary does not define it", name, binary)
			}
		}
	}
	for section := range documented {
		found := false
		for _, b := range binaries {
			if b == section {
				found = true
			}
		}
		if !found {
			t.Errorf("docs/FLAGS.md has a section %q that is not a cmd/ binary", section)
		}
	}
}

// TestDocsExperimentsMatchRegistry asserts docs/EXPERIMENTS.md documents
// exactly the registered sweeps: each -exp name appears either as the
// first cell of a catalog table row or as a "### `name`" heading.
func TestDocsExperimentsMatchRegistry(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("docs", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatalf("reading docs/EXPERIMENTS.md: %v", err)
	}
	nameRE := regexp.MustCompile("(?m)^(?:\\| |### )`([a-z0-9]+)`")
	documented := map[string]bool{}
	for _, m := range nameRE.FindAllStringSubmatch(string(data), -1) {
		documented[m[1]] = true
	}
	registered := map[string]bool{}
	for _, s := range experiments.Registry {
		registered[s.Name] = true
	}
	for _, name := range sorted(registered) {
		if !documented[name] {
			t.Errorf("-exp %s is registered but docs/EXPERIMENTS.md does not document it", name)
		}
	}
	for _, name := range sorted(documented) {
		if !registered[name] {
			t.Errorf("docs/EXPERIMENTS.md documents -exp %s but the registry has no such sweep", name)
		}
	}
}

// statsKeyRE is the shape of one /v1/stats key: snake_case.
var statsKeyRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// statsKeys adds typ's wire key paths to keys: a nested struct (or a
// pointer to one) prefixes its fields with "name.", a slice of structs
// with "name[].". Every exported field must carry an explicit snake_case
// json tag, and every duration a key ending in _ns.
func statsKeys(t *testing.T, typ reflect.Type, prefix string, keys map[string]bool) {
	t.Helper()
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			continue
		}
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if !statsKeyRE.MatchString(name) {
			t.Errorf("%s.%s: json tag %q is not an explicit snake_case key", typ, f.Name, name)
			continue
		}
		if f.Type == reflect.TypeOf(time.Duration(0)) && !strings.HasSuffix(name, "_ns") {
			t.Errorf("%s.%s: duration key %q must end in _ns", typ, f.Name, name)
		}
		ft, sep := f.Type, "."
		if ft.Kind() == reflect.Pointer {
			ft = ft.Elem()
		}
		if ft.Kind() == reflect.Slice {
			ft, sep = ft.Elem(), "[]."
		}
		if ft.Kind() == reflect.Struct {
			statsKeys(t, ft, prefix+name+sep, keys)
			continue
		}
		keys[prefix+name] = true
	}
}

// TestDocsStatsSchemaMatchesTags asserts the key table under the
// "/v1/stats schema" heading of docs/ARCHITECTURE.md lists exactly the
// key paths the json tags of core.Stats produce.
func TestDocsStatsSchemaMatchesTags(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("docs", "ARCHITECTURE.md"))
	if err != nil {
		t.Fatalf("reading docs/ARCHITECTURE.md: %v", err)
	}
	_, section, ok := strings.Cut(string(data), "\n## `/v1/stats` schema\n")
	if !ok {
		t.Fatal("docs/ARCHITECTURE.md: no \"## `/v1/stats` schema\" section")
	}
	if i := strings.Index(section, "\n## "); i >= 0 {
		section = section[:i]
	}
	rowRE := regexp.MustCompile("(?m)^\\| `([a-z0-9_.\\[\\]]+)` \\|")
	documented := map[string]bool{}
	for _, m := range rowRE.FindAllStringSubmatch(section, -1) {
		documented[m[1]] = true
	}
	defined := map[string]bool{}
	statsKeys(t, reflect.TypeOf(core.Stats{}), "", defined)
	for _, key := range sorted(defined) {
		if !documented[key] {
			t.Errorf("/v1/stats key %s is not in docs/ARCHITECTURE.md's schema table", key)
		}
	}
	for _, key := range sorted(documented) {
		if !defined[key] {
			t.Errorf("docs/ARCHITECTURE.md documents /v1/stats key %s but core.Stats has no such field", key)
		}
	}
}

func sorted(set map[string]bool) []string {
	names := make([]string, 0, len(set))
	for name := range set {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
