package pds

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestRuleLayout pins the rule layout: paper-scale systems hold over half
// a million rules in one array, which stays small and is never scanned by
// the garbage collector only while a Rule is at most 32 bytes and holds
// nothing the collector must trace. Weight vectors live in the PDS's
// weight table for that reason.
func TestRuleLayout(t *testing.T) {
	if sz := unsafe.Sizeof(Rule{}); sz > 32 {
		t.Errorf("sizeof(Rule) = %d bytes, want ≤ 32", sz)
	}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.Interface, reflect.String, reflect.Chan, reflect.Func:
			t.Errorf("%s has kind %v, which holds a pointer", path, typ.Kind())
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		}
	}
	walk("Rule", reflect.TypeOf(Rule{}))
}

// TestWeightTable checks weight ids: NoWeight resolves to nil, ids count
// from 1 in insertion order, Filter keeps the table and drops stale
// indexes, and vectors of a different dimension are refused.
func TestWeightTable(t *testing.T) {
	p := New(2, 1)
	if p.AddWeight(nil) != NoWeight || p.Weight(NoWeight) != nil || p.NumWeights() != 0 {
		t.Fatal("the empty vector must map to NoWeight and resolve to nil")
	}
	a, b := p.AddWeight([]uint64{1, 2}), p.AddWeight([]uint64{3, 4})
	if a != 1 || b != 2 || p.NumWeights() != 2 {
		t.Fatalf("ids = %d, %d (%d vectors), want 1, 2 (2)", a, b, p.NumWeights())
	}
	p.AddRule(Rule{FromState: 0, ToState: 1, Kind: PopRule, Weight: a})
	p.AddRule(Rule{FromState: 1, ToState: 0, Kind: PopRule, Weight: b})
	p.Freeze()
	p.Filter(func(_ int, r *Rule) bool { return r.FromState == 1 })
	if len(p.Rules) != 1 || !reflect.DeepEqual(p.Weight(p.Rules[0].Weight), []uint64{3, 4}) {
		t.Fatalf("after Filter: rules %v, weight %v", p.Rules, p.Weight(p.Rules[0].Weight))
	}
	if got := p.RulesFrom(1, 0); len(got) != 1 || got[0] != 0 {
		t.Fatalf("RulesFrom after Filter = %v, want [0]", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("AddWeight accepted a vector of another dimension")
		}
	}()
	p.AddWeight([]uint64{5})
}
