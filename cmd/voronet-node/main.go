// voronet-node runs one distributed VoroNet peer over TCP and drives it
// from a tiny line protocol on stdin — enough to assemble a real overlay
// across processes or machines by hand.
//
// Start the first node:
//
//	voronet-node -listen 127.0.0.1:7001 -x 0.2 -y 0.3 -bootstrap
//
// Join more nodes:
//
//	voronet-node -listen 127.0.0.1:7002 -x 0.8 -y 0.7 -join 127.0.0.1:7001
//
// Commands on stdin:
//
//	query X Y       route a point query, print the owning object
//	put X Y VALUE   store VALUE under attribute key (X, Y)
//	get X Y         fetch the value stored under (X, Y)
//	del X Y         delete the value stored under (X, Y)
//	trace X Y       traced GET: print the greedy route hop by hop
//	store           print the records this node holds
//	view            print vn / cn / long-link views
//	metrics         print this node's metric snapshot as JSON
//	leave           leave the overlay and exit
//
// With -connect ADDR the process is a thin pipelined client instead of an
// overlay member: it speaks the same query/put/get/del commands, but every
// operation travels through the member at ADDR over one multiplexed
// connection (internal/client) and no object is inserted into the
// attribute space. Replies come back to the client's own -listen address,
// so on another host pass one the overlay's members can dial.
//
// With -debug-addr the node also serves live introspection over HTTP:
// GET /metrics returns the merged node + transport snapshot as JSON, and
// /debug/pprof/ exposes the standard Go profiles.
//
// With -wal-dir the node is durable: every acked PUT/DELETE is logged to
// a write-ahead log there before the ack leaves, and a restart from the
// same directory replays the log into the store and rejoins with a fresh
// incarnation number. SIGTERM/SIGINT trigger a graceful shutdown: stop
// admitting new work, flush the WAL, hand records off via Leave, exit.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"voronet"
	"voronet/internal/client"
	"voronet/internal/geom"
	"voronet/internal/metrics"
	"voronet/internal/node"
	"voronet/internal/store"
	"voronet/internal/transport"
	"voronet/internal/wal"
)

var (
	listen    = flag.String("listen", "127.0.0.1:0", "TCP listen address")
	x         = flag.Float64("x", 0.5, "object x attribute in [0,1]")
	y         = flag.Float64("y", 0.5, "object y attribute in [0,1]")
	bootstrap = flag.Bool("bootstrap", false, "start a fresh overlay")
	join      = flag.String("join", "", "address of an overlay member to join through")
	nmax      = flag.Int("nmax", 100000, "provisioned overlay size (fixes dmin)")
	links     = flag.Int("k", 1, "long-range links")
	syncEvery = flag.Duration("sync-interval", 30*time.Second, "anti-entropy replica sweep period (0 disables)")
	debugAddr = flag.String("debug-addr", "", "serve JSON metrics and pprof on this HTTP address (e.g. 127.0.0.1:6060)")
	connect   = flag.String("connect", "", "run as a pipelined client of the overlay member at this address (no join)")
	cacheSize = flag.Int("route-cache", 0, "route/owner cache entries (0 disables)")

	walDir      = flag.String("wal-dir", "", "write-ahead log directory: log every acked write, replay on restart")
	walFsync    = flag.String("wal-fsync", "always", "WAL fsync policy: always|batch|never (-wal-dir)")
	walFlush    = flag.Duration("wal-flush", time.Second, "periodic WAL flush period under -wal-fsync=batch")
	maxInflight = flag.Int("max-inflight", 0, "shed store work beyond this many inflight ops (0 disables)")
)

func main() {
	flag.Parse()
	if *connect != "" {
		if err := runClient(*connect, *listen, os.Stdin, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	ep, err := transport.ListenTCP(*listen)
	if err != nil {
		fatal(err)
	}
	defer ep.Close()

	cfg := node.Config{
		DMin:           voronet.DefaultDMin(*nmax),
		LongLinks:      *links,
		Seed:           time.Now().UnixNano(),
		RouteCacheSize: *cacheSize,
		MaxInflight:    *maxInflight,
	}
	var nd *node.Node
	if *walDir != "" {
		policy, err := wal.ParsePolicy(*walFsync)
		if err != nil {
			fatal(err)
		}
		cfg.WALDir = *walDir
		cfg.WALSync = policy
		var stats wal.ReplayStats
		nd, stats, err = node.NewDurable(ep, geom.Pt(*x, *y), cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("wal %s: replayed %d records, gen %d (torn=%v corrupt=%d)\n",
			*walDir, stats.Records, stats.Generation, stats.Truncated, stats.CorruptFrames)
		if policy == wal.SyncBatch && *walFlush > 0 {
			go func() {
				for range time.Tick(*walFlush) {
					nd.WALSync()
				}
			}()
		}
	} else {
		nd = node.New(ep, geom.Pt(*x, *y), cfg)
	}
	fmt.Printf("node %s at (%g, %g)\n", nd.Info().Addr, *x, *y)

	// Graceful shutdown: stop admitting origin-side store work, flush the
	// WAL, hand every held record off through Leave, then exit — a node
	// killed this way loses no acked write even under -wal-fsync=batch.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		s := <-sigc
		fmt.Printf("\n%s: draining and leaving\n", s)
		if err := nd.Shutdown(); err != nil {
			fmt.Fprintln(os.Stderr, "voronet-node: shutdown:", err)
		}
		time.Sleep(200 * time.Millisecond) // let notifications flush
		os.Exit(0)
	}()

	if *debugAddr != "" {
		dbg, err := metrics.ServeDebug(*debugAddr,
			nd.Metrics().Snapshot, ep.Metrics().Snapshot)
		if err != nil {
			fatal(err)
		}
		defer dbg.Close()
		fmt.Printf("debug endpoint at http://%s/metrics (pprof under /debug/pprof/)\n", dbg.Addr())
	}

	switch {
	case *bootstrap:
		if err := nd.Bootstrap(); err != nil {
			fatal(err)
		}
		fmt.Println("bootstrapped a fresh overlay")
	case *join != "":
		if err := nd.Join(*join); err != nil {
			fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		resend := time.Now().Add(time.Second)
		for !nd.Joined() {
			if time.Now().After(deadline) {
				fatal(fmt.Errorf("join via %s timed out", *join))
			}
			if time.Now().After(resend) {
				// The join request or its grant can be lost (a crashed
				// sponsor, a stale connection at the sponsor after our own
				// restart): re-send until admitted. Admission is idempotent
				// and duplicate grants are ignored.
				_ = nd.Join(*join)
				resend = time.Now().Add(time.Second)
			}
			time.Sleep(10 * time.Millisecond)
		}
		fmt.Printf("joined via %s; %d Voronoi neighbours\n", *join, len(nd.Neighbors()))
	default:
		fatal(fmt.Errorf("need -bootstrap or -join"))
	}

	// Anti-entropy: periodically push every held record toward its owner
	// and replica set, repairing placement damaged by crashes or network
	// faults (the sweep the chaos harness drives explicitly via Settle).
	if *syncEvery > 0 {
		go func() {
			for range time.Tick(*syncEvery) {
				nd.SyncReplicas()
			}
		}()
	}

	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("> ")
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			fmt.Print("> ")
			continue
		}
		switch fields[0] {
		case "query":
			if len(fields) != 3 {
				fmt.Println("usage: query X Y")
				break
			}
			qx, err1 := strconv.ParseFloat(fields[1], 64)
			qy, err2 := strconv.ParseFloat(fields[2], 64)
			if err1 != nil || err2 != nil {
				fmt.Println("usage: query X Y")
				break
			}
			done := make(chan store.Reply, 1)
			if err := nd.Query(geom.Pt(qx, qy), func(r store.Reply) { done <- r }); err != nil {
				fmt.Println("query:", err)
				break
			}
			// The request deadline guarantees the callback fires, so the
			// verdict is printed once, before the next prompt.
			r := <-done
			if r.Err != nil {
				fmt.Println("query:", r.Err)
				break
			}
			fmt.Printf("owner of (%g, %g): %s at (%g, %g), %d hops\n",
				qx, qy, r.Owner.Addr, r.Owner.Pos.X, r.Owner.Pos.Y, r.Hops)
		case "put":
			if len(fields) < 4 {
				fmt.Println("usage: put X Y VALUE")
				break
			}
			key, err := parseKey(fields[1], fields[2])
			if err != nil {
				fmt.Println("put:", err)
				break
			}
			value := strings.Join(fields[3:], " ")
			if err := nd.PutSync(key, []byte(value)); err != nil {
				fmt.Println("put:", err)
				break
			}
			fmt.Printf("stored %q at (%g, %g)\n", value, key.X, key.Y)
		case "get":
			if len(fields) != 3 {
				fmt.Println("usage: get X Y")
				break
			}
			key, err := parseKey(fields[1], fields[2])
			if err != nil {
				fmt.Println("get:", err)
				break
			}
			v, err := nd.GetSync(key)
			if err != nil {
				fmt.Println("get:", err)
				break
			}
			fmt.Printf("(%g, %g) = %q\n", key.X, key.Y, v)
		case "del":
			if len(fields) != 3 {
				fmt.Println("usage: del X Y")
				break
			}
			key, err := parseKey(fields[1], fields[2])
			if err != nil {
				fmt.Println("del:", err)
				break
			}
			if err := nd.DeleteSync(key); err != nil {
				fmt.Println("del:", err)
				break
			}
			fmt.Printf("deleted (%g, %g)\n", key.X, key.Y)
		case "trace":
			if len(fields) != 3 {
				fmt.Println("usage: trace X Y")
				break
			}
			key, err := parseKey(fields[1], fields[2])
			if err != nil {
				fmt.Println("trace:", err)
				break
			}
			r, err := nd.GetTraceSync(key)
			if err != nil {
				fmt.Println("trace:", err)
				break
			}
			fmt.Printf("route to (%g, %g): %d hops\n", key.X, key.Y, r.Hops)
			for i, h := range r.Path {
				fmt.Printf("  %2d. %-22s %-8s +%0.3fms\n", i, h.Addr, h.Rule,
					float64(h.Nanos)/1e6)
			}
			if r.Found {
				fmt.Printf("answered by %s: %q (v%d)\n", r.Owner.Addr, r.Value, r.Version)
			} else {
				fmt.Printf("answered by %s: key not found\n", r.Owner.Addr)
			}
		case "store":
			recs := nd.StoreSnapshot()
			fmt.Printf("holding %d records (%d live):\n", len(recs), nd.StoreLen())
			for _, rec := range recs {
				if rec.Deleted {
					fmt.Printf("  (%g, %g) v%d tombstone\n", rec.Key.X, rec.Key.Y, rec.Version)
				} else {
					fmt.Printf("  (%g, %g) v%d %q\n", rec.Key.X, rec.Key.Y, rec.Version, rec.Value)
				}
			}
		case "view":
			fmt.Printf("vn (%d):\n", len(nd.Neighbors()))
			for _, v := range nd.Neighbors() {
				fmt.Printf("  %s (%g, %g)\n", v.Addr, v.Pos.X, v.Pos.Y)
			}
			fmt.Printf("cn (%d):\n", len(nd.CloseNeighbors()))
			for _, v := range nd.CloseNeighbors() {
				fmt.Printf("  %s (%g, %g)\n", v.Addr, v.Pos.X, v.Pos.Y)
			}
			fmt.Printf("LRn (%d):\n", len(nd.LongNeighbors()))
			for j, v := range nd.LongNeighbors() {
				tgt := nd.LongTargets()[j]
				fmt.Printf("  link %d -> %s (target %g, %g)\n", j, v.Addr, tgt.X, tgt.Y)
			}
		case "metrics":
			snap := nd.Metrics().Snapshot()
			snap.Merge(ep.Metrics().Snapshot())
			out, err := json.MarshalIndent(snap, "", "  ")
			if err != nil {
				fmt.Println("metrics:", err)
				break
			}
			fmt.Println(string(out))
		case "leave":
			// Shutdown is Leave plus the durable steps (drain, flush,
			// close the WAL); on a non-durable node the extras are no-ops.
			if err := nd.Shutdown(); err != nil {
				fmt.Println("leave:", err)
			}
			time.Sleep(200 * time.Millisecond) // let notifications flush
			fmt.Println("left the overlay")
			return
		default:
			fmt.Println("commands: query X Y | put X Y VALUE | get X Y | del X Y | trace X Y | store | view | metrics | leave")
		}
		fmt.Print("> ")
	}
	// stdin closed (running headless, e.g. under nohup): keep serving the
	// overlay until killed.
	fmt.Println("stdin closed; serving headless")
	select {}
}

// runClient is the -connect mode: a pipelined client REPL over one
// multiplexed connection to the gateway member, reading commands from in
// and answering on out. Replies come back to listenAddr, which the
// answering members dial, so it must be reachable from them. Operations
// issued while earlier ones await their replies genuinely overlap on the
// wire.
func runClient(gateway, listenAddr string, in io.Reader, out io.Writer) error {
	cl, err := client.Dial(gateway, client.Options{Listen: listenAddr, Timeout: 30 * time.Second})
	if err != nil {
		return err
	}
	defer cl.Close()
	fmt.Fprintf(out, "client %s -> gateway %s\n", cl.Addr(), gateway)

	sc := bufio.NewScanner(in)
	fmt.Fprint(out, "> ")
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			fmt.Fprint(out, "> ")
			continue
		}
		switch fields[0] {
		case "query":
			key, err := parseKeyArgs(fields, 3)
			if err != nil {
				fmt.Fprintln(out, "usage: query X Y")
				break
			}
			owner, hops, err := cl.QuerySync(key)
			if err != nil {
				fmt.Fprintln(out, "query:", err)
				break
			}
			fmt.Fprintf(out, "owner of (%g, %g): %s at (%g, %g), %d hops\n",
				key.X, key.Y, owner.Addr, owner.Pos.X, owner.Pos.Y, hops)
		case "put":
			if len(fields) < 4 {
				fmt.Fprintln(out, "usage: put X Y VALUE")
				break
			}
			key, err := parseKey(fields[1], fields[2])
			if err != nil {
				fmt.Fprintln(out, "put:", err)
				break
			}
			value := strings.Join(fields[3:], " ")
			if err := cl.PutSync(key, []byte(value)); err != nil {
				fmt.Fprintln(out, "put:", err)
				break
			}
			fmt.Fprintf(out, "stored %q at (%g, %g)\n", value, key.X, key.Y)
		case "get":
			key, err := parseKeyArgs(fields, 3)
			if err != nil {
				fmt.Fprintln(out, "usage: get X Y")
				break
			}
			v, err := cl.GetSync(key)
			if err != nil {
				fmt.Fprintln(out, "get:", err)
				break
			}
			fmt.Fprintf(out, "(%g, %g) = %q\n", key.X, key.Y, v)
		case "del":
			key, err := parseKeyArgs(fields, 3)
			if err != nil {
				fmt.Fprintln(out, "usage: del X Y")
				break
			}
			if err := cl.DeleteSync(key); err != nil {
				fmt.Fprintln(out, "del:", err)
				break
			}
			fmt.Fprintf(out, "deleted (%g, %g)\n", key.X, key.Y)
		case "exit", "quit":
			return nil
		default:
			fmt.Fprintln(out, "commands: query X Y | put X Y VALUE | get X Y | del X Y | exit")
		}
		fmt.Fprint(out, "> ")
	}
	return sc.Err()
}

// parseKeyArgs parses fields[1], fields[2] as a key when the command has
// exactly want fields.
func parseKeyArgs(fields []string, want int) (geom.Point, error) {
	if len(fields) != want {
		return geom.Point{}, fmt.Errorf("want %d arguments", want-1)
	}
	return parseKey(fields[1], fields[2])
}

func parseKey(xs, ys string) (geom.Point, error) {
	kx, err1 := strconv.ParseFloat(xs, 64)
	ky, err2 := strconv.ParseFloat(ys, 64)
	if err1 != nil || err2 != nil {
		return geom.Point{}, fmt.Errorf("key coordinates must be numbers")
	}
	if math.IsNaN(kx) || math.IsNaN(ky) || math.IsInf(kx, 0) || math.IsInf(ky, 0) {
		return geom.Point{}, fmt.Errorf("key coordinates must be finite")
	}
	return geom.Pt(kx, ky), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "voronet-node:", err)
	os.Exit(1)
}
