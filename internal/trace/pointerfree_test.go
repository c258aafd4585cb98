package trace

import (
	"reflect"
	"testing"
	"unsafe"

	"hoop/internal/cache"
	"hoop/internal/skiplist"
)

// TestHotStateIsPointerFree locks the layout of the per-cell state held
// in bulk: captured ops, the LSM index's skip-list nodes and the cache
// model's tag words and LRU stamps. None may hold a pointer-shaped field,
// so the garbage collector never scans their arrays; an Op stays 24 bytes,
// a skip-list node 32, half a cache line, and a tag word 8.
// The skip-list and cache types are unexported, so they are reached
// through the fields that hold them.
func TestHotStateIsPointerFree(t *testing.T) {
	if got := unsafe.Sizeof(Op{}); got != 24 {
		t.Errorf("trace.Op is %d bytes, want 24", got)
	}
	elem := func(owner reflect.Type, path ...string) reflect.Type {
		typ := owner
		for _, name := range path {
			for typ.Kind() == reflect.Pointer || typ.Kind() == reflect.Slice {
				typ = typ.Elem()
			}
			f, ok := typ.FieldByName(name)
			if !ok {
				t.Fatalf("%v has no field %s", typ, name)
			}
			typ = f.Type
		}
		for typ.Kind() == reflect.Pointer || typ.Kind() == reflect.Slice {
			typ = typ.Elem()
		}
		return typ
	}
	skipNode := elem(reflect.TypeOf(skiplist.List{}), "nodes")
	if got := skipNode.Size(); got != 32 {
		t.Errorf("skip-list node is %d bytes, want 32", got)
	}
	tagWord := elem(reflect.TypeOf(cache.Hierarchy{}), "llc", "tags")
	if got := tagWord.Size(); got != 8 {
		t.Errorf("cache tag word is %d bytes, want 8", got)
	}
	for _, typ := range []reflect.Type{
		reflect.TypeOf(Op{}),
		skipNode,
		tagWord,
		elem(reflect.TypeOf(cache.Hierarchy{}), "llc", "stamps"),
	} {
		checkPointerFree(t, typ.String(), typ)
	}
}

// checkPointerFree fails for every field reachable inline from typ (through
// structs and arrays) that holds a pointer, slice, map, string, channel,
// function or interface.
func checkPointerFree(t *testing.T, path string, typ reflect.Type) {
	t.Helper()
	switch typ.Kind() {
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			checkPointerFree(t, path+"."+f.Name, f.Type)
		}
	case reflect.Array:
		checkPointerFree(t, path+"[]", typ.Elem())
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.String,
		reflect.Chan, reflect.Func, reflect.Interface:
		t.Errorf("%s is a %s: hot per-cell state must hold no pointers", path, typ.Kind())
	}
}
