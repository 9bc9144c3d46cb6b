package proto

import (
	"fmt"
	"reflect"
	"runtime/debug"
	"sync"
	"testing"
	"unsafe"

	"voronet/internal/geom"
)

// skipUnderRace skips a test whose allocation counts the race detector's
// instrumentation would void.
func skipUnderRace(t *testing.T) {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("allocation counts are not meaningful under -race")
			}
		}
	}
}

// sliceFree returns the envelopes that carry no slice field: every such
// sample, plus the untraced routed GET and query and a value-less store
// reply — the frames of a route's hops and of a miss's answer.
func sliceFree() []*Envelope {
	var out []*Envelope
	for _, e := range samples() {
		if e.Path == nil && e.Neighbors == nil && e.TwoHop == nil && e.CloseCand == nil &&
			e.Back == nil && e.Departed == nil && e.DepartedGen == nil && e.Value == nil &&
			e.Records == nil && e.Digest == nil {
			out = append(out, e)
		}
	}
	from := NodeInfo{Addr: "10.0.0.1:7001", Pos: geom.Pt(0.20, 0.30)}
	origin := NodeInfo{Addr: "10.0.0.9:7001", Pos: geom.Pt(0.91, 0.12), Gen: 3}
	for _, p := range []RoutedPurpose{PurposeStoreGet, PurposeQuery} {
		out = append(out, &Envelope{Type: KindRoute, From: from, Purpose: p,
			Target: geom.Pt(0.612, 0.344), Origin: origin, Hops: 4, QueryID: 831})
	}
	return append(out, &Envelope{Type: KindStoreReply, From: from, QueryID: 912, Hops: 3, Version: 12})
}

// TestDecodeIntoZeroAllocs is the decode half of the allocation gate:
// with the envelope reused and the intern table warm, a frame that
// carries no slice field decodes without touching the heap.
func TestDecodeIntoZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	var names Intern
	var e Envelope
	for _, want := range sliceFree() {
		frame := AppendEncode(nil, want)
		t.Run(fmt.Sprintf("%v/%d", want.Type, want.Purpose), func(t *testing.T) {
			if err := DecodeInto(&e, frame, &names); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(200, func() {
				if err := DecodeInto(&e, frame, &names); err != nil {
					panic(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("DecodeInto allocated %.1f times per frame, want 0", allocs)
			}
			if !reflect.DeepEqual(&e, want) {
				t.Fatalf("decoded %+v, want %+v", e, *want)
			}
		})
	}
}

// TestDecodeIntoOverwritesEverything: decoding into an envelope that held
// a fuller frame leaves nothing of it behind, and what an earlier decode
// handed out — its slices — is not overwritten.
func TestDecodeIntoOverwritesEverything(t *testing.T) {
	var names Intern
	var e Envelope
	all := samples()
	for i, first := range all {
		second := all[(i+1)%len(all)]
		if err := DecodeInto(&e, AppendEncode(nil, first), &names); err != nil {
			t.Fatal(err)
		}
		kept := e
		if err := DecodeInto(&e, AppendEncode(nil, second), &names); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(&e, second) {
			t.Fatalf("%v after %v: decoded %+v, want %+v", second.Type, first.Type, e, *second)
		}
		if !reflect.DeepEqual(&kept, first) {
			t.Fatalf("%v: the first decode's fields changed under a second decode", first.Type)
		}
	}
}

// TestInternReturnsTheSameString: an address seen before comes back as
// the very string handed out the first time, without allocating.
func TestInternReturnsTheSameString(t *testing.T) {
	var names Intern
	addr := []byte("10.0.0.7:7001")
	first := names.str(addr)
	again := names.str([]byte("10.0.0.7:7001"))
	if first != "10.0.0.7:7001" || unsafe.StringData(again) != unsafe.StringData(first) {
		t.Fatalf("second lookup gave %q at %p, first %q at %p", again, unsafe.StringData(again), first, unsafe.StringData(first))
	}
	if nilTable := (*Intern)(nil).str(addr); nilTable != first || unsafe.StringData(nilTable) == unsafe.StringData(first) {
		t.Fatalf("a nil table returned %q, want a fresh copy", nilTable)
	}
	skipUnderRace(t)
	if allocs := testing.AllocsPerRun(200, func() { names.str(addr) }); allocs != 0 {
		t.Fatalf("interning a known address allocated %.1f times, want 0", allocs)
	}
}

// TestInternBoundedUnderFlood: a peer that sends frame after frame with
// a new address never grows the table past its cap, and what is interned
// after a clear is still right.
func TestInternBoundedUnderFlood(t *testing.T) {
	var names Intern
	var e Envelope
	for i := 0; i < 5*maxInterned; i++ {
		addr := fmt.Sprintf("10.%d.%d.%d:7001", i>>16, i>>8&255, i&255)
		frame := AppendEncode(nil, &Envelope{Type: KindCNAdd, From: NodeInfo{Addr: addr, Pos: geom.Pt(0.5, 0.5)}})
		if err := DecodeInto(&e, frame, &names); err != nil {
			t.Fatal(err)
		}
		if e.From.Addr != addr {
			t.Fatalf("frame %d decoded From %q, want %q", i, e.From.Addr, addr)
		}
		if n := len(names.m); n > maxInterned {
			t.Fatalf("after %d distinct addresses the table holds %d, cap %d", i+1, n, maxInterned)
		}
	}
}

// TestInternConcurrent: handlers interning at once (run under -race in
// CI) all get strings equal to their bytes, and one table entry per
// distinct address.
func TestInternConcurrent(t *testing.T) {
	var names Intern
	addrs := make([][]byte, 64)
	for i := range addrs {
		addrs[i] = []byte(fmt.Sprintf("10.0.%d.%d:7001", i/8, i%8))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				b := addrs[(i*7+g)%len(addrs)]
				if s := names.str(b); s != string(b) {
					t.Errorf("interned %q as %q", b, s)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if len(names.m) != len(addrs) {
		t.Fatalf("table holds %d entries for %d addresses", len(names.m), len(addrs))
	}
}
