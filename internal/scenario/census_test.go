package scenario

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// keptSpecTerms is the whole list of wp2p.scenario.v1 keys and action,
// metric and reaction values that no spec under examples/scenarios, benchmark/specs or
// testdata/ uses, each with the one reason it stays in the language.
// TestSpecCensus fails when a term is missing from it, and when an entry is
// stale: used by a spec after all, or no longer in the language.
var keptSpecTerms = []struct{ term, reason string }{
	{"runs", "`wp2p scenario -runs` sets it by override; each bundled spec is one seed"},
	{"events.action=handoff", "the reaction tests fire exactly one handoff with it (reaction_test.go)"},
}

// TestSpecCensus holds keptSpecTerms to be exactly the terms of the spec
// language that no spec file uses. A term is a key, by its path with the
// indices dropped ("peers.mobility.first"), or an action, metric or reaction
// value ("measure.metric=completion_s"). A series' set paths and values and a
// sweep's param and values count as uses.
func TestSpecCensus(t *testing.T) {
	terms := map[string]bool{}
	schemaKeys(reflect.TypeOf(Spec{}), "", terms)
	for _, v := range specValues(t) {
		terms[v] = true
	}

	used := map[string]bool{}
	for _, glob := range []string{examplesDir + "/*.json", "../../benchmark/specs/*.json", "testdata/*.json"} {
		files, _ := filepath.Glob(glob)
		for _, path := range files {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var doc map[string]any
			if json.Unmarshal(data, &doc) != nil || doc["schema"] != SchemaVersion {
				continue // a golden, not a spec
			}
			s, err := Load(data)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			specType := reflect.TypeOf(Spec{})
			useTree(used, "", doc, specType)
			for _, sv := range s.Series {
				for p, v := range sv.Set {
					useTree(used, usePath(t, used, p), v, resolveType(t, p))
				}
			}
			if s.Sweep != nil {
				p := usePath(t, used, s.Sweep.Param)
				for _, v := range s.Sweep.Values {
					useTree(used, p, v, resolveType(t, s.Sweep.Param))
				}
			}
		}
	}

	kept := map[string]bool{}
	for _, k := range keptSpecTerms {
		if k.reason == "" {
			t.Errorf("%s is in keptSpecTerms without a reason", k.term)
		}
		kept[k.term] = true
	}
	var sorted []string
	for term := range terms {
		sorted = append(sorted, term)
	}
	sort.Strings(sorted)
	for _, term := range sorted {
		listed := kept[term]
		delete(kept, term)
		switch {
		case used[term] && listed:
			t.Errorf("%s is used by a spec: drop it from keptSpecTerms", term)
		case !used[term] && !listed:
			t.Errorf("%s is used by no spec: delete it, use it in a spec whose effect a test observes, or give keptSpecTerms its reason", term)
		}
	}
	for term := range kept {
		t.Errorf("%s is in keptSpecTerms but not in the spec language", term)
	}
	t.Logf("%d spec terms, %d kept unused", len(sorted), len(keptSpecTerms))
}

// schemaKeys adds every JSON key reachable from t, by path.
func schemaKeys(t reflect.Type, path string, out map[string]bool) {
	for t.Kind() == reflect.Pointer || t.Kind() == reflect.Slice {
		t = t.Elem()
	}
	if t.Kind() != reflect.Struct {
		return
	}
	for i := 0; i < t.NumField(); i++ {
		if key := jsonKey(t.Field(i)); key != "" {
			out[join(path, key)] = true
			schemaKeys(t.Field(i).Type, join(path, key), out)
		}
	}
}

// specValues reads the action, metric and reaction names off spec.go's Act*,
// Metric* and React* constants, so a new one joins the census without a test
// edit.
func specValues(t *testing.T) (out []string) {
	f, err := parser.ParseFile(token.NewFileSet(), "spec.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, s := range gd.Specs {
			vs := s.(*ast.ValueSpec)
			for i, name := range vs.Names {
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !ok {
					continue
				}
				v, _ := strconv.Unquote(lit.Value)
				switch {
				case strings.HasPrefix(name.Name, "Act"):
					out = append(out, "events.action="+v)
				case strings.HasPrefix(name.Name, "Metric"):
					out = append(out, "measure.metric="+v)
				case strings.HasPrefix(name.Name, "React"):
					out = append(out, "peers.mobility.reaction="+v)
				}
			}
		}
	}
	return out
}

// useTree marks the keys of the JSON value v, found at path and decoded as
// t, and its action, metric and reaction values.
func useTree(used map[string]bool, path string, v any, t reflect.Type) {
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	switch val := v.(type) {
	case map[string]any:
		if t.Kind() != reflect.Struct {
			return
		}
		for k, sub := range val {
			if f, ok := fieldByKey(t, k); ok {
				used[join(path, k)] = true
				useTree(used, join(path, k), sub, f.Type)
			}
		}
	case []any:
		if t.Kind() == reflect.Slice {
			for _, e := range val {
				useTree(used, path, e, t.Elem())
			}
		}
	case string:
		if path == "events.action" || path == "measure.metric" || path == "peers.mobility.reaction" {
			used[path+"="+val] = true
		}
	}
}

// usePath marks every key along an override path and returns its term path.
func usePath(t *testing.T, used map[string]bool, override string) string {
	segs, err := parsePath(override)
	if err != nil {
		t.Fatal(err)
	}
	path := ""
	for _, sg := range segs {
		path = join(path, sg.key)
		used[path] = true
	}
	return path
}

// resolveType follows an override path through the Spec type.
func resolveType(t *testing.T, override string) reflect.Type {
	segs, _ := parsePath(override)
	typ := reflect.TypeOf(Spec{})
	for _, sg := range segs {
		for typ.Kind() == reflect.Pointer {
			typ = typ.Elem()
		}
		f, ok := fieldByKey(typ, sg.key)
		if !ok {
			t.Fatalf("override path %q: no key %q", override, sg.key)
		}
		typ = f.Type
		for range sg.indices {
			typ = typ.Elem()
		}
	}
	return typ
}

func fieldByKey(t reflect.Type, key string) (reflect.StructField, bool) {
	if t.Kind() == reflect.Struct {
		for i := 0; i < t.NumField(); i++ {
			if jsonKey(t.Field(i)) == key {
				return t.Field(i), true
			}
		}
	}
	return reflect.StructField{}, false
}

// jsonKey is a field's wp2p.scenario.v1 key, "" for an unexported field.
func jsonKey(f reflect.StructField) string {
	if !f.IsExported() {
		return ""
	}
	key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
	return key
}

func join(path, key string) string {
	if path == "" {
		return key
	}
	return path + "." + key
}
