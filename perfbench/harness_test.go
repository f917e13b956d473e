package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	epoch := time.Unix(0, 0)
	at := func(us int) time.Time { return epoch.Add(time.Duration(us) * time.Microsecond) }
	tr := &tracer{epoch: epoch}
	root := tr.add("root", at(0), at(100))
	tr.addChild("a", root, 1, at(10), at(30))
	tr.addChild("b", root, 2, at(20), at(50))       // overlaps a
	c := tr.addChild("c", root, 0, at(90), at(120)) // runs past the parent
	tr.addChild("d", c, 0, at(95), at(100))
	self := tr.selfTimes()
	// Children cover 10..50 and 90..100 of the root: 50 µs of its 100.
	for name, want := range map[string]float64{"root": 50, "a": 20, "b": 30, "c": 25, "d": 5} {
		if got := self[name]; len(got) != 1 || got[0] != want {
			t.Errorf("self[%s] = %v, want [%v]", name, got, want)
		}
	}
	if tr.spans[c-1].req != tr.spans[root-1].req {
		t.Errorf("child request %d, parent request %d", tr.spans[c-1].req, tr.spans[root-1].req)
	}
}

func TestParseIDs(t *testing.T) {
	body := []byte(`{"k":3,"ids":[17,3,42],"items":[{"id":17}]}`)
	ids, ok := parseIDs(body, nil)
	if !ok || !sameIDs(ids, []int{3, 17, 42}) {
		t.Fatalf("parseIDs = %v, %v", ids, ok)
	}
	for _, bad := range []string{`{"k":3}`, `{"ids":[1,2`, `{"ids":[1,x]}`} {
		if _, ok := parseIDs([]byte(bad), nil); ok {
			t.Errorf("parseIDs(%s) accepted", bad)
		}
	}
	if ids, ok := parseIDs([]byte(`{"ids":[]}`), nil); !ok || len(ids) != 0 {
		t.Errorf("empty ids = %v, %v", ids, ok)
	}
}
