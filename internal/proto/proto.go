// Package proto defines the wire messages of the distributed VoroNet node
// (internal/node): greedy-routed envelopes for joins, long-link
// establishment, queries and object-store operations, plus the
// neighbourhood-maintenance messages of §4.2 (AddVoronoiRegion /
// RemoveVoronoiRegion) and the store replication/handoff messages of
// internal/store. Messages travel in the compact binary v1 codec (see
// wire.go).
//
// The vocabulary follows the paper: a node's entry for another object
// carries its address and its coordinates in the unit square (§3, "each
// entry of the view is composed of the IP address of the node hosting the
// object as well as its coordinates").
package proto

import (
	"fmt"

	"voronet/internal/geom"
)

// NodeInfo identifies an object: transport address plus attribute-space
// position. Gen is the incarnation number — zero for a node that has
// never durably restarted, bumped by each WAL-backed restart at the same
// address — and is what lets departure gossip about a crashed
// incarnation coexist with its rejoined successor: a tombstone kills
// (Addr, Gen), never Addr forever. The codec omits zero fields, so
// gen-free overlays put nothing extra on the wire.
type NodeInfo struct {
	Addr string
	Pos  geom.Point
	Gen  uint64
}

// Kind enumerates message types.
type Kind int

// Message kinds.
const (
	// KindRoute is a greedy-routed envelope carrying one of the routed
	// purposes below toward Target.
	KindRoute Kind = iota
	// KindJoinGrant is sent by the owner of the join position to the
	// joiner: its new view (Voronoi neighbours with their own neighbour
	// lists, close-neighbour candidates, transferred BLRn entries).
	KindJoinGrant
	// KindSetNeighbors is sent by the owner that admitted a joiner to
	// each neighbour the joiner was granted: Origin is the joiner and
	// Neighbors its granted list, which the recipient takes into its pool
	// and two-hop table before it recomputes its own view.
	KindSetNeighbors
	// KindNeighborList refreshes the sender's neighbour list in the
	// recipient's two-hop table.
	KindNeighborList
	// KindCNAdd offers close-neighbour candidates (Lemma 1); each side
	// answers what it newly adds, so the sets stay symmetric.
	KindCNAdd
	// kindRetiredCNRemove, kindRetiredLeaveCN and kindRetiredBackWithdraw
	// reserve the bytes of departure kinds whose work KindLeave does, so
	// every later kind keeps its byte. No node sends them and Decode
	// refuses them.
	kindRetiredCNRemove
	// KindLongLinkGrant answers a routed long-link search: the owner of
	// the target region grants the link and registers the back pointer.
	KindLongLinkGrant
	// KindBackTransfer hands over BLRn entries to a new region owner.
	KindBackTransfer
	// KindLongLinkUpdate tells a link's origin that its long-range
	// neighbour changed (churn repair via the back link).
	KindLongLinkUpdate
	// KindLeave is a departing node's farewell, sent once to every peer
	// that holds it in a slot: its Voronoi and close neighbours and the
	// holders of its long links. It carries only From: each recipient
	// drops the sender from every slot, closing the hole in its view from
	// its own two-hop table, and re-routes what the sender held for it.
	KindLeave
	kindRetiredLeaveCN
	// KindQueryAnswer returns the owner of a queried point to the
	// requester (AnswerQuery in Algorithm 4).
	KindQueryAnswer
	kindRetiredBackWithdraw
	// kindRetiredRangeForward and kindRetiredRangeHit reserve the bytes
	// of the retired live range flood (§7 range queries exist only in the
	// simulator), so every later kind keeps its byte. No node sends them
	// and Decode refuses them.
	kindRetiredRangeForward
	kindRetiredRangeHit
	// KindStoreReply answers a routed store operation (PurposeStorePut /
	// PurposeStoreGet / PurposeStoreDelete) back at the request origin,
	// correlated by QueryID.
	KindStoreReply
	// KindReplicaSync pushes store records to a peer: replication after a
	// put or delete at the owner, re-replication after churn, and — with
	// Handoff set — a primary-ownership transfer that obliges the
	// recipient to re-replicate in turn.
	KindReplicaSync
	// KindSyncDigest opens a digest-first anti-entropy round: instead of
	// full records, it carries compact per-record fingerprints (Digest)
	// of everything the sender would push to the recipient, which
	// replies with the fingerprints it is missing.
	KindSyncDigest
	// KindSyncPull answers a KindSyncDigest with the subset of
	// fingerprints the recipient does not hold; the digest sender then
	// streams full records (KindReplicaSync) for exactly that subset.
	KindSyncPull

	// KindCount is the number of message kinds; per-kind metric arrays
	// are sized with it. Keep it last.
	KindCount
)

// kindNames must track the Kind constants above; metric names derive
// from these, so they are lower_snake_case.
var kindNames = [KindCount]string{
	KindRoute:          "route",
	KindJoinGrant:      "join_grant",
	KindSetNeighbors:   "set_neighbors",
	KindNeighborList:   "neighbor_list",
	KindCNAdd:          "cn_add",
	KindLongLinkGrant:  "long_link_grant",
	KindBackTransfer:   "back_transfer",
	KindLongLinkUpdate: "long_link_update",
	KindLeave:          "leave",
	KindQueryAnswer:    "query_answer",
	KindStoreReply:     "store_reply",
	KindReplicaSync:    "replica_sync",
	KindSyncDigest:     "sync_digest",
	KindSyncPull:       "sync_pull",
}

// String names a kind for metrics and diagnostics. A retired kind's name
// is empty: it has no metric series.
func (k Kind) String() string {
	if k >= 0 && k < KindCount {
		return kindNames[k]
	}
	return fmt.Sprintf("kind_%d", int(k))
}

// RoutedPurpose says why a KindRoute message is travelling.
type RoutedPurpose int

// Routed purposes.
const (
	// PurposeJoin locates the owner of a joining object's position.
	PurposeJoin RoutedPurpose = iota
	// PurposeLongLink locates the owner of a long-link target (Algorithm 2).
	PurposeLongLink
	// PurposeQuery locates the owner of a query point (Algorithm 4).
	PurposeQuery
	// purposeRetiredRange reserves the value of the retired live range
	// flood, so every later purpose keeps its value; Decode refuses it.
	purposeRetiredRange
	// PurposeStorePut locates the owner of a key's region, which stores
	// the carried value and replicates it (Target is the key, Value the
	// payload).
	PurposeStorePut
	// PurposeStoreGet locates the owner of a key's region, which answers
	// with its record or an authoritative miss.
	PurposeStoreGet
	// PurposeStoreDelete locates the owner of a key's region, which
	// tombstones the record and replicates the tombstone.
	PurposeStoreDelete

	// purposeCount bounds the purposes Decode accepts. Keep it last.
	purposeCount
)

// TraceHop is one hop of a per-hop routing trace: the address of the
// node that handled the envelope, the rule that chose the next hop (or
// terminated the route), and the wall-clock nanoseconds the hop spent in
// the handler. Rules are "vn" / "cn" / "long" for a greedy forward via
// that candidate class, and "owner" when the handler owned the target.
// Addr+Rule are deterministic under the serial simnet; Nanos is wall
// time and is not.
type TraceHop struct {
	Addr  string
	Rule  string
	Nanos int64
}

// maxTracePath bounds an accepted trace path. Greedy routes are
// O(log²N) hops; anything longer than this is garbage or an attack.
const maxTracePath = 4096

// BackEntry is one BLRn element on the wire: the origin object, which of
// its links this is, and the link's immutable target point.
type BackEntry struct {
	Origin NodeInfo
	Link   int
	Target geom.Point
}

// StoreRecord is one stored object payload on the wire and in the local
// keyed stores: the key is a point of the attribute space (the object's
// attribute coordinates), the version is a per-key monotonic counter
// assigned by the key's successive region owners, and Deleted marks a
// tombstone (the record of a deletion, kept so that replicas cannot
// resurrect the value). Higher version wins on merge.
type StoreRecord struct {
	Key     geom.Point
	Value   []byte
	Version uint64
	Deleted bool
}

// NeighborRecord pairs a node with its own Voronoi neighbour list — the
// "neighbours' neighbours" knowledge of §4.1.
type NeighborRecord struct {
	Node NodeInfo
	VN   []NodeInfo
}

// Envelope is the single wire message. Fields are populated according to
// Type; the codec omits empty ones via its presence bitmap.
type Envelope struct {
	Type Kind
	From NodeInfo

	// Routing (KindRoute).
	Purpose RoutedPurpose
	Target  geom.Point
	Origin  NodeInfo // the node the answer should reach
	Link    int      // long-link index for PurposeLongLink
	Hops    int      // accumulated Greedyneighbour count
	QueryID uint64   // correlates a routed request with its answer

	// Tracing (KindRoute with Trace set; Path rides the answer home on
	// KindQueryAnswer / KindStoreReply). Each node on the greedy path
	// appends one TraceHop; see DESIGN.md §Observability.
	Trace bool
	Path  []TraceHop

	// Views (KindJoinGrant, KindSetNeighbors, KindNeighborList).
	Neighbors []NodeInfo       // new vn list for the recipient
	TwoHop    []NeighborRecord // neighbour lists of those neighbours
	CloseCand []NodeInfo       // close-neighbour candidates (Lemma 1)
	Back      []BackEntry      // transferred BLRn entries

	// Long links (KindLongLinkGrant, KindLongLinkUpdate).
	Granter NodeInfo

	// Departed carries the sender's recently seen departures; recipients
	// merge them into their tombstone sets so that stale two-hop gossip
	// cannot resurrect a dead neighbour. DepartedGen, when present, holds
	// the incarnation number each departure died at (index-aligned with
	// Departed; absent means all zero): a recipient that can see a newer
	// incarnation of the address alive ignores the entry, so old
	// departure news cannot kill a durably restarted node.
	Departed    []string
	DepartedGen []uint64

	// Object store (PurposeStore*, KindStoreReply, KindReplicaSync).
	Value   []byte        // payload of a PurposeStorePut / found KindStoreReply
	Found   bool          // KindStoreReply: the key had a live record
	Version uint64        // version of the record acted upon
	Records []StoreRecord // KindReplicaSync: replicated / handed-off records
	Handoff bool          // KindReplicaSync: recipient becomes the owner
	Shed    bool          // KindStoreReply: the owner refused the op under overload

	// Anti-entropy (KindSyncDigest, KindSyncPull): packed 8-byte record
	// fingerprints, little-endian, no separators.
	Digest []byte
}

// maxEnvelopeBytes bounds an accepted wire frame (it matches the TCP
// transport's 1 MiB frame cap). VoroNet views are O(1), so real envelopes
// are tiny; the bound keeps a malicious length prefix from making the
// decoder allocate unboundedly before the payload is even validated.
const maxEnvelopeBytes = 1 << 20

// Decode deserialises one binary v1 frame into a fresh envelope; see
// DecodeInto.
func Decode(b []byte) (*Envelope, error) {
	e := new(Envelope)
	if err := DecodeInto(e, b, nil); err != nil {
		return nil, err
	}
	return e, nil
}

// DecodeInto deserialises one binary v1 frame into e, overwriting every
// field; on error e's contents are unspecified. The first byte is the
// format version (wireMagic); a frame that starts with anything else is
// an error. Malformed bytes yield an error, never a panic: nodes drop
// garbage frames and stay up (see FuzzEnvelopeRoundTrip). Structurally
// valid frames carrying semantically impossible field values are
// rejected here too: no legitimate sender ever produces an unknown or
// retired kind or purpose, or a negative Link, Hops or BackEntry.Link,
// and a negative Link would otherwise reach a slice index in the
// receiving node.
//
// Strings — addresses, departures, trace rules — come from intern when it
// is non-nil, so a frame from a known peer allocates none; every slice
// field is allocated fresh, so e may be reused while what a handler kept
// of an earlier frame stays intact. Nothing in e aliases b.
func DecodeInto(e *Envelope, b []byte, intern *Intern) error {
	if len(b) > maxEnvelopeBytes {
		return fmt.Errorf("proto: decode: frame of %d bytes exceeds %d", len(b), maxEnvelopeBytes)
	}
	if len(b) == 0 || b[0] != wireMagic {
		return errBadMagic
	}
	return decodeBinary(e, b, intern)
}

// validate rejects field values no correct peer can send. It runs on every
// decode, so it must stay O(fields).
func (e *Envelope) validate() error {
	if e.Type < 0 || e.Type >= KindCount || kindNames[e.Type] == "" {
		return fmt.Errorf("proto: decode: unknown kind %d", int(e.Type))
	}
	if e.Purpose < 0 || e.Purpose >= purposeCount || e.Purpose == purposeRetiredRange {
		return fmt.Errorf("proto: decode: unknown purpose %d", int(e.Purpose))
	}
	if e.Link < 0 {
		return fmt.Errorf("proto: decode: negative Link %d", e.Link)
	}
	if e.Hops < 0 {
		return fmt.Errorf("proto: decode: negative Hops %d", e.Hops)
	}
	for i := range e.Back {
		if e.Back[i].Link < 0 {
			return fmt.Errorf("proto: decode: negative Back[%d].Link %d", i, e.Back[i].Link)
		}
	}
	if len(e.Path) > maxTracePath {
		return fmt.Errorf("proto: decode: trace path of %d hops exceeds %d", len(e.Path), maxTracePath)
	}
	if len(e.Digest)%8 != 0 {
		return fmt.Errorf("proto: decode: digest of %d bytes is not a whole number of fingerprints", len(e.Digest))
	}
	if len(e.DepartedGen) > len(e.Departed) {
		return fmt.Errorf("proto: decode: %d departure generations for %d departures", len(e.DepartedGen), len(e.Departed))
	}
	return nil
}

// AppendHop returns Path extended with one hop, always in fresh backing
// storage. Forwarding copies envelopes by value (fwd := *env), which
// aliases the Path backing array between the original and the copy; a
// plain append could then write one branch's hop into another's slice.
func AppendHop(path []TraceHop, hop TraceHop) []TraceHop {
	out := make([]TraceHop, len(path)+1)
	copy(out, path)
	out[len(path)] = hop
	return out
}
