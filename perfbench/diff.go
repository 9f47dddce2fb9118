package main

import (
	"fmt"
	"reflect"
	"sort"
)

// firstDiff returns the path of the first field at which a and b differ,
// such as "Slices[97].CPUTime", or "" when they are deep-equal. Fields
// are visited in declaration order, elements in index order and map
// keys in sorted order, so the path is stable from run to run.
func firstDiff(a, b any) string {
	if reflect.DeepEqual(a, b) {
		return ""
	}
	if p := diffValue(reflect.ValueOf(a), reflect.ValueOf(b), ""); p != "" {
		return p
	}
	return "(value)"
}

func diffValue(a, b reflect.Value, path string) string {
	here := path
	if here == "" {
		here = "(value)"
	}
	if a.IsValid() != b.IsValid() || (a.IsValid() && a.Type() != b.Type()) {
		return here
	}
	if !a.IsValid() {
		return ""
	}
	switch a.Kind() {
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return here
			}
			return ""
		}
		return diffValue(a.Elem(), b.Elem(), path)
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			name := a.Type().Field(i).Name
			if path != "" {
				name = path + "." + name
			}
			if d := diffValue(a.Field(i), b.Field(i), name); d != "" {
				return d
			}
		}
		return ""
	case reflect.Slice, reflect.Array:
		if a.Kind() == reflect.Slice && a.IsNil() != b.IsNil() {
			return here
		}
		n := min(a.Len(), b.Len())
		for i := 0; i < n; i++ {
			if d := diffValue(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); d != "" {
				return d
			}
		}
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s[%d]", path, n)
		}
		return ""
	case reflect.Map:
		if a.Len() != b.Len() || a.IsNil() != b.IsNil() {
			return here
		}
		keys := a.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })
		for _, k := range keys {
			bv := b.MapIndex(k)
			if !bv.IsValid() {
				return fmt.Sprintf("%s[%v]", path, k)
			}
			if d := diffValue(a.MapIndex(k), bv, fmt.Sprintf("%s[%v]", path, k)); d != "" {
				return d
			}
		}
		return ""
	default: // scalars
		if fmt.Sprint(a) != fmt.Sprint(b) {
			return here
		}
		return ""
	}
}
