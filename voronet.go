// Package voronet is a Go implementation of VoroNet, the object-to-object
// peer-to-peer overlay network of Beaumont, Kermarrec, Marchal and Rivière
// (IPDPS 2007; INRIA research report RR-5833).
//
// VoroNet links application objects — not hosts — in a 2-D attribute space:
// each object is a point of the unit square, its identifier is its
// attribute values, and the overlay graph is the Delaunay triangulation of
// the objects (the dual of their Voronoi tessellation) augmented with
// Kleinberg-style long-range links. Greedy routing over an object's view —
// its Voronoi neighbours vn(o), its close neighbours cn(o) (objects within
// distance dmin) and its long-range neighbours LRn(o) — reaches any point
// of the attribute space in O(log² N) expected hops for any object
// distribution, which is the paper's central theorem.
//
// # Quick start
//
//	ov := voronet.New(voronet.Config{NMax: 100000})
//	a, _ := ov.Insert(voronet.Pt(0.25, 0.75))
//	b, _ := ov.Insert(voronet.Pt(0.80, 0.10))
//	hops, _ := ov.RouteToObject(a, b)
//	owner, _ := ov.Owner(voronet.Pt(0.5, 0.5), a)
//
//	st := voronet.NewStore(ov, voronet.DefaultReplication)
//	st.Put(a, voronet.Pt(0.5, 0.5), []byte("payload"))
//	val, hops, _ := st.Get(b, voronet.Pt(0.5, 0.5))
//
// The package re-exports the simulation engine (internal/core): one
// process holds the tessellation the distributed protocol maintains
// collectively, with per-object views and exact protocol cost accounting
// per the paper's Algorithms 1–5. The genuinely distributed,
// message-passing node (internal/node, internal/transport) realises the
// same protocol over TCP or an in-memory bus; see examples/distributed and
// cmd/voronet-node.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// reproduction of every figure of the paper's evaluation.
package voronet

import (
	"voronet/internal/core"
	"voronet/internal/geom"
	"voronet/internal/proto"
	"voronet/internal/store"
)

// Point is a position in the 2-D attribute space (the unit square).
type Point = geom.Point

// Pt builds a Point.
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// Dist returns the Euclidean distance between two points.
func Dist(a, b Point) float64 { return geom.Dist(a, b) }

// ObjectID identifies an overlay object. IDs are never reused.
type ObjectID = core.ObjectID

// NoObject is the invalid object ID.
const NoObject = core.NoObject

// Config parameterises an overlay; see the field docs in internal/core.
type Config = core.Config

// Object is an overlay object with its protocol state.
type Object = core.Object

// Counters accounts protocol costs (Greedyneighbour calls, maintenance
// messages, fictive insertions).
type Counters = core.Counters

// RouteResult reports a point routing outcome (Algorithm 5).
type RouteResult = core.RouteResult

// QueryStats accounts the cost of a range or radius query.
type QueryStats = core.QueryStats

// Overlay is a VoroNet overlay. It follows a single-writer / many-readers
// discipline: mutating and serially-accounted operations (Insert, Join,
// Remove, HandleQuery, RouteToObject, RangeQuery, RadiusQuery, and the
// scratch-backed accessors such as VoronoiNeighbors and Cell) serialise
// behind an internal write lock, while the Router read engine, the Store
// fast path and the scratch-free accessors (Owner, Position, Degree, ...)
// run under the read lock — so routing, owner resolution and store reads
// scale across cores, concurrently with one writer. Fan concurrent reads
// through one Router per goroutine.
type Overlay = core.Overlay

// Errors returned by overlay operations.
var (
	ErrDuplicate = core.ErrDuplicate
	ErrNotFound  = core.ErrNotFound
	ErrEmpty     = core.ErrEmpty
)

// RoutePair is one sampled couple for Overlay.MeasureRoutes.
type RoutePair = core.RoutePair

// Router is the overlay's concurrent read engine: mutation-free greedy
// routing and owner resolution over private scratch state, guarded by the
// overlay's read lock. Create one per goroutine with
// Overlay.NewRouter; any number may run concurrently, including while a
// single writer joins and removes objects. See Overlay.MeasureRoutes for
// the pre-built parallel route measurement.
type Router = core.Router

// Store is the attribute-addressed object store riding on an overlay:
// values are keyed by points of the attribute space, live at the owner of
// the key's Voronoi region, and are replicated to the owner's Voronoi
// neighbours. The distributed realisation (internal/node) speaks the same
// protocol over the wire; this simulator mirror runs identical workloads
// in one process (see DESIGN.md §store).
type Store = core.Store

// StoreRecord is one stored payload with its version and tombstone flag.
type StoreRecord = proto.StoreRecord

// DefaultReplication is the default store replication factor R.
const DefaultReplication = store.DefaultReplication

// Store errors.
var (
	// ErrKeyNotFound reports a Get or Delete for a missing or deleted key.
	ErrKeyNotFound = store.ErrNotFound
	// ErrStoreTimeout reports a routed store operation whose reply did not
	// arrive in time (distributed node only).
	ErrStoreTimeout = store.ErrTimeout
)

// NewStore attaches an empty object store to ov; replication <= 0 selects
// DefaultReplication.
func NewStore(ov *Overlay, replication int) *Store { return core.NewStore(ov, replication) }

// New creates an empty overlay provisioned for cfg.NMax objects.
func New(cfg Config) *Overlay { return core.New(cfg) }

// DefaultDMin returns the paper's close-neighbour radius 1/√(π·NMax).
func DefaultDMin(nmax int) float64 { return core.DefaultDMin(nmax) }
