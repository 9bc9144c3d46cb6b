package core

import (
	"reflect"
	"testing"

	"voronet/internal/geom"
)

// The two tests below enforce the rule stated at literalInsert, which is
// what lets join and searchLongLink charge their fictive objects without
// building them: a fictive object does tessellation surgery only. Both
// watch remove's ring scratch, which is built for the first BLRn entry a
// removed object has to place and for nothing else: a ring that was never
// built means no object removed in between held an entry.

// linkSnapshot is every object's BLRn in list order and every LRn, in
// Overlay.ids order.
type linkSnapshot struct {
	ids  []ObjectID
	back [][]backRef
	long [][]ObjectID
}

func snapshotLinks(o *Overlay) linkSnapshot {
	s := linkSnapshot{ids: append([]ObjectID(nil), o.ids...)}
	for _, id := range s.ids {
		back, _ := o.backLongRange(id)
		long := longNeighbors(o, id)
		s.back = append(s.back, back)
		s.long = append(s.long, long)
	}
	return s
}

// TestProbeLeavesNoTrace resolves 200 long-link targets, a third of them or
// more outside the unit square, through Algorithm 2's routed search, and
// each once more through the literal protocol (literalOwner), and requires
// that the probe objects leave the overlay as they found it: every BLRn
// list entry for entry in list order, every long link, the object tables
// and the triangulation's site count. Probes that took entries and handed
// them back would restore the sets and not the order.
func TestProbeLeavesNoTrace(t *testing.T) {
	for _, sc := range handOverScenarios {
		if sc.name == "uniform" {
			continue
		}
		o, live, rng := sc.build(t, 1)
		before := snapshotLinks(o)
		nObjs, nSites, c0 := len(o.objs), o.tr.NumSites(), o.counters

		o.ring, o.rpos = nil, nil
		exterior := 0
		for i := 0; i < 200; i++ {
			from := o.objs[live[rng.Intn(len(live))]]
			tgt := o.chooseLRT(from.Pos)
			for i%3 == 0 && tgt.InUnitSquare() {
				tgt = o.chooseLRT(from.Pos)
			}
			if !tgt.InUnitSquare() {
				exterior++
			}
			owner, _, err := o.searchLongLink(from, tgt)
			if err != nil {
				t.Fatalf("%s: target %d: %v", sc.name, i, err)
			}
			stop, _, err := o.routeToPoint(&o.rt, from.vert, tgt)
			if err != nil {
				t.Fatalf("%s: target %d: %v", sc.name, i, err)
			}
			literal, err := literalOwner(o, stop, tgt)
			if err != nil {
				t.Fatalf("%s: target %d: %v", sc.name, i, err)
			}
			want, _ := o.Owner(tgt, from.ID)
			for _, got := range []ObjectID{owner, literal} {
				if got != want && !o.equidistantOwners(tgt, got, want) {
					t.Fatalf("%s: target %d: probe names %d, owner is %d", sc.name, i, got, want)
				}
			}
		}
		if exterior < 60 {
			t.Fatalf("%s: %d of 200 targets exterior, want >= 60", sc.name, exterior)
		}

		if cap(o.ring) != 0 || cap(o.rpos) != 0 {
			t.Errorf("%s: a probe object had a BLRn entry to re-delegate when it was removed", sc.name)
		}
		if after := snapshotLinks(o); !reflect.DeepEqual(before, after) {
			t.Errorf("%s: probing changed a BLRn list, a long link or the ID table", sc.name)
		}
		if len(o.objs) != nObjs || len(o.ids) != nObjs || o.tr.NumSites() != nSites {
			t.Errorf("%s: %d objects, %d ids, %d sites after probing; want %d, %d, %d",
				sc.name, len(o.objs), len(o.ids), o.tr.NumSites(), nObjs, nObjs, nSites)
		}
		c := o.counters
		if c.FictiveInserts-c0.FictiveInserts < 400 || c.Leaves != c0.Leaves || c.Joins != c0.Joins {
			t.Errorf("%s: counters moved from %+v to %+v", sc.name, c0, c)
		}
		if err := o.CheckInvariants(true); err != nil {
			t.Errorf("%s: %v", sc.name, err)
		}
	}
}

// TestJoinBehindSteppingStoneKeepsOwnership joins 400 objects into the
// exterior scenario and checks the ownership invariant after every one. It
// rehearses each join first — the route, the stepping-stone z, the joiner,
// all fictive — to learn which objects are Voronoi neighbours of z and not
// of the joiner while z is in place, and then requires that some joiner
// took an entry over from such a neighbour: the holder a stepping-stone
// hides, which the joiner's take-over reaches only because it runs after z
// has left.
func TestJoinBehindSteppingStoneKeepsOwnership(t *testing.T) {
	sc := handOverScenarios[1]
	if sc.name != "exterior" {
		t.Fatalf("scenario 1 is %q", sc.name)
	}
	o, live, rng := sc.build(t, 1)
	neighbours := func(id ObjectID) map[ObjectID]bool {
		set := map[ObjectID]bool{}
		for _, v := range o.tr.Neighbors(o.objs[id].vert, nil) {
			set[o.byVertex[v]] = true
		}
		return set
	}

	const joins = 400
	behindZ, fromBesideZ, fromHidden := 0, 0, 0
	for i := 0; i < joins; i++ {
		p := geom.Pt(rng.Float64(), rng.Float64())
		via := live[rng.Intn(len(live))]

		// Rehearsal: where join will stop, whether it will need z, and what
		// z stands next to with the joiner beside it.
		stop, _, err := o.routeToPoint(&o.rt, o.objs[via].vert, p)
		if err != nil {
			t.Fatal(err)
		}
		var besideZ, hidden map[ObjectID]bool
		if z, dz := o.fictiveSite(stop, p); dz > 0 {
			zID := literalInsert(o, z, stop)
			if zID == NoObject {
				t.Fatalf("join %d: stepping-stone site %v is occupied", i, z)
			}
			pID := literalInsert(o, p, o.objs[zID].vert)
			besideZ, hidden = neighbours(zID), map[ObjectID]bool{}
			besideP := neighbours(pID)
			for id := range besideZ {
				if id != pID && !besideP[id] {
					hidden[id] = true
				}
			}
			if err := literalRemove(o, pID); err != nil {
				t.Fatal(err)
			}
			if err := literalRemove(o, zID); err != nil {
				t.Fatal(err)
			}
			behindZ++
		}
		holder := map[backRef]ObjectID{}
		for _, id := range o.ids {
			for j := range o.objs[id].longTargets {
				holder[backRef{Obj: id, Link: j}] = o.longNeighbor(o.objs[id], j)
			}
		}

		o.ring, o.rpos = nil, nil
		id, err := o.Join(p, via)
		if err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
		if cap(o.ring) != 0 {
			t.Fatalf("join %d: a fictive object had a BLRn entry to re-delegate when it was removed", i)
		}
		if err := o.CheckInvariants(true); err != nil {
			t.Fatalf("join %d at %v: %v", i, p, err)
		}
		live = append(live, id)

		took, tookHidden := false, false
		back, _ := o.backLongRange(id)
		for _, ref := range back {
			if from, ok := holder[ref]; ok {
				took = took || besideZ[from]
				tookHidden = tookHidden || hidden[from]
			}
		}
		if took {
			fromBesideZ++
		}
		if tookHidden {
			fromHidden++
		}
	}
	t.Logf("%d joins: %d behind a stepping-stone, %d took entries from a neighbour of z, %d from one z hid",
		joins, behindZ, fromBesideZ, fromHidden)
	if behindZ < joins/5 {
		t.Errorf("%d of %d joins inserted a stepping-stone, want >= %d", behindZ, joins, joins/5)
	}
	if fromBesideZ == 0 || fromHidden == 0 {
		t.Errorf("no joiner took an entry from a neighbour of its stepping-stone (%d) or from one it hid (%d)",
			fromBesideZ, fromHidden)
	}
}
