package node

import (
	"bytes"
	"testing"
	"time"

	"voronet/internal/geom"
	"voronet/internal/proto"
	"voronet/internal/transport"
)

// lateGrantEndpoint holds back the JoinGrant frames its node receives
// until release, so that whatever the admitting owner sends after the
// grant reaches the joiner first, as reordering links deliver it.
type lateGrantEndpoint struct {
	transport.Endpoint
	h    transport.Handler
	from []string
	held [][]byte
}

func (e *lateGrantEndpoint) SetHandler(h transport.Handler) {
	e.h = h
	e.Endpoint.SetHandler(func(from string, payload []byte) {
		if env, err := proto.Decode(payload); err == nil && env.Type == proto.KindJoinGrant {
			e.from = append(e.from, from)
			e.held = append(e.held, bytes.Clone(payload))
			return
		}
		h(from, payload)
	})
}

func (e *lateGrantEndpoint) release() {
	for i, p := range e.held {
		e.h(e.from[i], p)
	}
	e.from, e.held = nil, nil
}

// TestJoinerKeepsWhatPrecedesItsGrant: the owner that admits a joiner
// hands it a BLRn entry and the store records of its new region right
// after the grant, and both can overtake the grant. A joining node has
// not left: it keeps them and places them once the grant lands. It must
// neither bounce the entry with itself listed as departed — every node
// the bounce reached would tombstone a live joiner — nor re-delegate the
// records over the empty view of a node that never joined, dropping them.
func TestJoinerKeepsWhatPrecedesItsGrant(t *testing.T) {
	const dmin = 0.02
	c := newCluster(t, 40, dmin, 31)
	// The joiner lands beside a long link's target and a stored key, so
	// its admission moves both to it.
	origin := c.nodes[7]
	tgt := origin.LongTargets()[0]
	if !geom.InDomain(tgt) || tgt.X < 0.01 || tgt.X > 0.99 || tgt.Y < 0.01 || tgt.Y > 0.99 {
		t.Fatalf("long-link target %v is off the unit square; pick another origin", tgt)
	}
	pos := geom.Pt(tgt.X+1e-6, tgt.Y)
	key := geom.Pt(tgt.X+2e-6, tgt.Y)
	c.putKey(t, c.nodes[3], key, []byte("before the grant"))

	ep, err := c.bus.Attach("joiner")
	if err != nil {
		t.Fatal(err)
	}
	late := &lateGrantEndpoint{Endpoint: ep}
	j := New(late, pos, Config{DMin: dmin, LongLinks: 1, Seed: 99, RequestTimeout: 365 * 24 * time.Hour})
	if err := j.Join(c.nodes[0].Info().Addr); err != nil {
		t.Fatal(err)
	}
	c.bus.Drain()
	if j.Joined() || len(late.held) == 0 {
		t.Fatalf("the grant was not held back (joined %v, held %d)", j.Joined(), len(late.held))
	}
	// Before the grant: the entry and the record are kept, and no node
	// takes the joiner for departed.
	keeps := func(when string) {
		t.Helper()
		for _, nd := range c.nodes {
			if nd.tombstoned(j.Info().Addr) {
				t.Errorf("%s: %s tombstones the live joiner", when, nd.Info().Addr)
			}
		}
		holds := false
		for _, ref := range j.BackEntries() {
			holds = holds || ref.Origin.Addr == origin.Info().Addr && ref.Link == 0
		}
		if !holds {
			t.Errorf("%s: the joiner holds no back entry for %s's link: %v", when, origin.Info().Addr, j.BackEntries())
		}
		if rec, ok := j.StoreLookup(key); !ok || string(rec.Value) != "before the grant" {
			t.Errorf("%s: the joiner holds %+v for %v (found %v)", when, rec, key, ok)
		}
	}
	keeps("before the grant")

	late.release()
	c.bus.Drain()
	if !j.Joined() {
		t.Fatal("the joiner did not join")
	}
	c.nodes = append(c.nodes, j)
	keeps("after the grant")
	if l := origin.LongNeighbors()[0]; l.Addr != j.Info().Addr {
		t.Errorf("%s's long link is held by %s, want the joiner", origin.Info().Addr, l.Addr)
	}
	if r := c.getKey(t, c.nodes[3], key); !r.Found || string(r.Value) != "before the grant" {
		t.Errorf("GET %v after the join: %+v", key, r)
	}
	c.checkViewsAgainstReference(t)
}
