package flitsim

import (
	"reflect"
	"testing"

	"repro/internal/nas"
)

// pointerFields lists the fields of t, by path, that hold a pointer or a
// value the garbage collector must scan (slices, maps, strings, interfaces,
// funcs, channels).
func pointerFields(t reflect.Type, path string) []string {
	switch t.Kind() {
	case reflect.Struct:
		var out []string
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			out = append(out, pointerFields(f.Type, path+"."+f.Name)...)
		}
		return out
	case reflect.Array:
		return pointerFields(t.Elem(), path+"[]")
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.String,
		reflect.Interface, reflect.Func, reflect.Chan:
		return []string{path + " (" + t.String() + ")"}
	}
	return nil
}

// TestEngineRecordsPointerFree pins that the records the engine copies every
// cycle — buffered flits, flits in link pipelines and the delivery ring, the
// move history — and the elements of its worklists hold no pointer, so
// copying them never pays a GC write barrier.
func TestEngineRecordsPointerFree(t *testing.T) {
	var e engine
	for _, typ := range []reflect.Type{
		reflect.TypeOf(flit{}),
		reflect.TypeOf(inflightFlit{}),
		reflect.TypeOf(move{}),
		reflect.TypeOf(cycleRec{}),
		reflect.TypeOf(e.allocCh).Elem(),
		reflect.TypeOf(e.wake).Elem(),
	} {
		if ptrs := pointerFields(typ, typ.Name()); len(ptrs) > 0 {
			t.Errorf("%v holds pointers: %v", typ, ptrs)
		}
	}
	// The check itself must see a pointer where there is one.
	if ptrs := pointerFields(reflect.TypeOf(vcBuf{}), "vcBuf"); len(ptrs) == 0 {
		t.Error("pointerFields finds no pointer in vcBuf")
	}
}

// TestRunMeshAllocs holds a warm RunMesh of full-size CG/16 to a ceiling:
// the fabric's channels, VCs, buffers and pipelines, the scripts and the
// packet arena come from the pooled engine, so what is left is the routing
// table, the network's validation and the Result. It read 228 when this was
// written. Building the fabric's slabs afresh each run read 355, and the
// engine that allocated each channel in five pieces and its scripts afresh
// read 940. Under the race detector sync.Pool drops entries at random, so
// the count measures the pool, not the engine.
func TestRunMeshAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	pat, err := nas.Generate("CG", 16, nas.Config{})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := RunMesh(pat, Config{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 300 {
		t.Errorf("RunMesh allocates %.0f times on CG/16, ceiling 300", allocs)
	}
}
