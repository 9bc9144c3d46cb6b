// Distributed VoroNet — the genuinely message-passing realisation of the
// protocol. Every peer here holds only its own view (its position, its
// Voronoi neighbours and their lists, close neighbours, long links) and
// all coordination happens through protocol messages on a deterministic
// in-memory bus; swap the bus for transport.ListenTCP and the same peers
// run across machines (see cmd/voronet-node).
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"log"
	"math/rand"

	"voronet"
	"voronet/internal/geom"
	"voronet/internal/node"
	"voronet/internal/store"
	"voronet/internal/transport"
)

func main() {
	const n = 80
	bus := transport.NewBus()
	rng := rand.New(rand.NewSource(21))
	dmin := voronet.DefaultDMin(1000)

	var peers []*node.Node
	for i := 0; i < n; i++ {
		ep, err := bus.Attach(fmt.Sprintf("peer-%02d", i))
		if err != nil {
			log.Fatal(err)
		}
		nd := node.New(ep, geom.Pt(rng.Float64(), rng.Float64()), node.Config{
			DMin: dmin, LongLinks: 1, Seed: int64(i),
		})
		if i == 0 {
			if err := nd.Bootstrap(); err != nil {
				log.Fatal(err)
			}
		} else {
			// Join through a random existing peer; the join request is
			// greedy-routed to the owner of our position.
			via := peers[rng.Intn(len(peers))].Info().Addr
			if err := nd.Join(via); err != nil {
				log.Fatal(err)
			}
			bus.Drain() // deliver all protocol messages
			if !nd.Joined() {
				log.Fatalf("peer %d failed to join", i)
			}
		}
		peers = append(peers, nd)
	}
	fmt.Printf("%d peers joined; bus delivered %d protocol messages (%.1f per join)\n\n",
		n, bus.DeliveredCount(), float64(bus.DeliveredCount())/float64(n-1))

	// Every peer's view is purely local. Show one.
	p := peers[17]
	fmt.Printf("%s view:\n", p.Info().Addr)
	for _, v := range p.Neighbors() {
		fmt.Printf("  vn  %s (%.3f, %.3f)\n", v.Addr, v.Pos.X, v.Pos.Y)
	}
	for j, l := range p.LongNeighbors() {
		fmt.Printf("  LRn %d -> %s\n", j, l.Addr)
	}

	// Distributed point queries, answered by whoever owns the region.
	fmt.Println("\nqueries:")
	for i := 0; i < 4; i++ {
		q := geom.Pt(rng.Float64(), rng.Float64())
		from := peers[rng.Intn(len(peers))]
		if err := from.Query(q, func(r store.Reply) {
			fmt.Printf("  (%.2f, %.2f) from %s -> owner %s in %d hops\n",
				q.X, q.Y, from.Info().Addr, r.Owner.Addr, r.Hops)
		}); err != nil {
			log.Fatal(err)
		}
		bus.Drain()
	}

	// A third of the peers leave; views repair themselves through the
	// departure protocol, and queries still resolve to the right owners.
	fmt.Println("\nchurn: 25 peers leave...")
	for i := 0; i < 25; i++ {
		k := 1 + rng.Intn(len(peers)-1)
		nd := peers[k]
		if !nd.Joined() {
			continue
		}
		if err := nd.Leave(); err != nil {
			log.Fatal(err)
		}
		bus.Drain()
	}
	var live []*node.Node
	for _, nd := range peers {
		if nd.Joined() {
			live = append(live, nd)
		}
	}
	ok := 0
	for i := 0; i < 20; i++ {
		q := geom.Pt(rng.Float64(), rng.Float64())
		// Ground truth owner among live peers.
		best := live[0].Info()
		for _, nd := range live {
			if geom.Dist2(nd.Info().Pos, q) < geom.Dist2(best.Pos, q) {
				best = nd.Info()
			}
		}
		from := live[rng.Intn(len(live))]
		if err := from.Query(q, func(r store.Reply) {
			if r.Owner.Addr == best.Addr {
				ok++
			}
		}); err != nil {
			log.Fatal(err)
		}
		bus.Drain()
	}
	fmt.Printf("%d peers remain; %d/20 post-churn queries resolved to the exact owner\n", len(live), ok)
}
