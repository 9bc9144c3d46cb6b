// Binary wire codec: a hand-rolled, versioned, length-delimited envelope
// encoding.
//
// Frame layout (all multi-byte integers little-endian):
//
//	byte 0    wireMagic | version  (0xB1 for v1)
//	byte 1    Kind                 (uint8)
//	varint    flags                (one presence bit per optional field,
//	                                bool fields carry their value in the bit)
//	fields    in fixed bit order, only those whose flag bit is set
//
// Field encodings: points are 16 raw bytes (two IEEE-754 float64 bit
// patterns, LE); strings and byte slices are uvarint length + bytes;
// unsigned counters (QueryID, Version, Gen) are uvarints; signed ints
// that ride the wire (Link, Hops) are zigzag varints so hostile negative
// values still encode — Decode's validate() rejects them.
// TraceHop.Nanos is a fixed 8-byte LE int64: it is
// a wall-clock reading, and a varint would make frame sizes (and the
// node_wire_bytes_* books) timing-dependent across replays. Struct
// slices are uvarint count + elements.
//
// Version policy: the first byte of every frame is the format version,
// 0xB1 for v1; Decode rejects a frame that starts with anything else. A
// layout change bumps the byte (0xB2, ...).
//
// AppendEncode performs zero heap allocations (gated by
// TestAppendEncodeZeroAllocs); senders thread pooled buffers through it
// via GetBuf/WireBuf.Put. Decode necessarily allocates the envelope and
// copies every string and byte slice out of the frame: inbound frame
// buffers are reused by the transport read loops, so a decoded envelope
// must never alias them.
package proto

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"voronet/internal/geom"
)

// wireMagic is the first byte of every v1 frame: the format version.
const wireMagic = 0xB1

// Flag bits: one per optional envelope field, in encode order. Bool
// fields (Trace, Found, Handoff, Shed) have no body — the bit is the
// value. flagRetiredTargetB keeps the bit of the retired range flood's
// segment end, so every later field keeps its bit; it is never set, and
// Decode refuses a frame that sets it.
const (
	flagFrom = 1 << iota
	flagPurpose
	flagTarget
	flagRetiredTargetB
	flagOrigin
	flagLink
	flagHops
	flagQueryID
	flagTrace
	flagPath
	flagNeighbors
	flagTwoHop
	flagCloseCand
	flagBack
	flagGranter
	flagDeparted
	flagDepartedGen
	flagValue
	flagFound
	flagVersion
	flagRecords
	flagHandoff
	flagShed
	flagDigest

	// knownFlags is every bit a v1 frame may set.
	knownFlags = (flagDigest<<1 - 1) &^ flagRetiredTargetB
)

// WireBuf is a pooled encode buffer. The cycle is: GetBuf, append the
// frame with AppendEncode(wb.B[:0], ...) storing the result back into
// wb.B, hand the bytes to Endpoint.Send (which never retains them after
// it returns — see transport.Endpoint), then wb.Put. Ownership is
// single-threaded: the goroutine that Gets a buffer Puts it; nothing
// else may touch it in between.
type WireBuf struct{ B []byte }

var wireBufPool = sync.Pool{
	New: func() any { return &WireBuf{B: make([]byte, 0, 2048)} },
}

// maxPooledBuf bounds what Put returns to the pool: an occasional 1 MiB
// value frame must not pin megabytes of idle pool memory forever.
const maxPooledBuf = 1 << 18

// GetBuf fetches a pooled wire buffer.
func GetBuf() *WireBuf { return wireBufPool.Get().(*WireBuf) }

// Put returns the buffer to the pool. The caller must not touch wb.B
// afterwards.
func (wb *WireBuf) Put() {
	if cap(wb.B) > maxPooledBuf {
		wb.B = make([]byte, 0, 2048)
	}
	wireBufPool.Put(wb)
}

// AppendEncode appends the binary v1 encoding of e to dst and returns
// the extended slice. It never fails (every field value is encodable —
// semantically impossible ones are the decoder's job to reject) and
// performs no heap allocations beyond growing dst.
func AppendEncode(dst []byte, e *Envelope) []byte {
	dst = append(dst, wireMagic, byte(e.Type))

	var flags uint64
	if e.From != (NodeInfo{}) {
		flags |= flagFrom
	}
	if e.Purpose != 0 {
		flags |= flagPurpose
	}
	if e.Target != (geom.Point{}) {
		flags |= flagTarget
	}
	if e.Origin != (NodeInfo{}) {
		flags |= flagOrigin
	}
	if e.Link != 0 {
		flags |= flagLink
	}
	if e.Hops != 0 {
		flags |= flagHops
	}
	if e.QueryID != 0 {
		flags |= flagQueryID
	}
	if e.Trace {
		flags |= flagTrace
	}
	if len(e.Path) > 0 {
		flags |= flagPath
	}
	if len(e.Neighbors) > 0 {
		flags |= flagNeighbors
	}
	if len(e.TwoHop) > 0 {
		flags |= flagTwoHop
	}
	if len(e.CloseCand) > 0 {
		flags |= flagCloseCand
	}
	if len(e.Back) > 0 {
		flags |= flagBack
	}
	if e.Granter != (NodeInfo{}) {
		flags |= flagGranter
	}
	if len(e.Departed) > 0 {
		flags |= flagDeparted
	}
	if len(e.DepartedGen) > 0 {
		flags |= flagDepartedGen
	}
	if len(e.Value) > 0 {
		flags |= flagValue
	}
	if e.Found {
		flags |= flagFound
	}
	if e.Version != 0 {
		flags |= flagVersion
	}
	if len(e.Records) > 0 {
		flags |= flagRecords
	}
	if e.Handoff {
		flags |= flagHandoff
	}
	if e.Shed {
		flags |= flagShed
	}
	if len(e.Digest) > 0 {
		flags |= flagDigest
	}
	dst = binary.AppendUvarint(dst, flags)

	if flags&flagFrom != 0 {
		dst = appendNodeInfo(dst, &e.From)
	}
	if flags&flagPurpose != 0 {
		dst = binary.AppendUvarint(dst, uint64(e.Purpose))
	}
	if flags&flagTarget != 0 {
		dst = appendPoint(dst, e.Target)
	}
	if flags&flagOrigin != 0 {
		dst = appendNodeInfo(dst, &e.Origin)
	}
	if flags&flagLink != 0 {
		dst = appendZigzag(dst, int64(e.Link))
	}
	if flags&flagHops != 0 {
		dst = appendZigzag(dst, int64(e.Hops))
	}
	if flags&flagQueryID != 0 {
		dst = binary.AppendUvarint(dst, e.QueryID)
	}
	if flags&flagPath != 0 {
		dst = binary.AppendUvarint(dst, uint64(len(e.Path)))
		for i := range e.Path {
			dst = appendString(dst, e.Path[i].Addr)
			dst = appendString(dst, e.Path[i].Rule)
			// Fixed 8 bytes, not a varint: Nanos is a wall-clock reading,
			// and a timing-dependent varint length would make frame sizes
			// — and the node_wire_bytes_* books built from them —
			// nondeterministic across otherwise identical replays
			// (TestMetricsSnapshotDeterministicAcrossReplays).
			dst = binary.LittleEndian.AppendUint64(dst, uint64(e.Path[i].Nanos))
		}
	}
	if flags&flagNeighbors != 0 {
		dst = appendNodeInfos(dst, e.Neighbors)
	}
	if flags&flagTwoHop != 0 {
		dst = binary.AppendUvarint(dst, uint64(len(e.TwoHop)))
		for i := range e.TwoHop {
			dst = appendNodeInfo(dst, &e.TwoHop[i].Node)
			dst = appendNodeInfos(dst, e.TwoHop[i].VN)
		}
	}
	if flags&flagCloseCand != 0 {
		dst = appendNodeInfos(dst, e.CloseCand)
	}
	if flags&flagBack != 0 {
		dst = binary.AppendUvarint(dst, uint64(len(e.Back)))
		for i := range e.Back {
			dst = appendNodeInfo(dst, &e.Back[i].Origin)
			dst = appendZigzag(dst, int64(e.Back[i].Link))
			dst = appendPoint(dst, e.Back[i].Target)
		}
	}
	if flags&flagGranter != 0 {
		dst = appendNodeInfo(dst, &e.Granter)
	}
	if flags&flagDeparted != 0 {
		dst = binary.AppendUvarint(dst, uint64(len(e.Departed)))
		for _, d := range e.Departed {
			dst = appendString(dst, d)
		}
	}
	if flags&flagDepartedGen != 0 {
		dst = binary.AppendUvarint(dst, uint64(len(e.DepartedGen)))
		for _, g := range e.DepartedGen {
			dst = binary.AppendUvarint(dst, g)
		}
	}
	if flags&flagValue != 0 {
		dst = appendBytes(dst, e.Value)
	}
	if flags&flagVersion != 0 {
		dst = binary.AppendUvarint(dst, e.Version)
	}
	if flags&flagRecords != 0 {
		dst = binary.AppendUvarint(dst, uint64(len(e.Records)))
		for i := range e.Records {
			r := &e.Records[i]
			dst = appendPoint(dst, r.Key)
			dst = appendBytes(dst, r.Value)
			dst = binary.AppendUvarint(dst, r.Version)
			if r.Deleted {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
		}
	}
	if flags&flagDigest != 0 {
		dst = appendBytes(dst, e.Digest)
	}
	return dst
}

func appendPoint(dst []byte, p geom.Point) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.X))
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.Y))
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func appendZigzag(dst []byte, v int64) []byte {
	return binary.AppendUvarint(dst, uint64(v)<<1^uint64(v>>63))
}

func appendNodeInfo(dst []byte, n *NodeInfo) []byte {
	dst = appendString(dst, n.Addr)
	dst = appendPoint(dst, n.Pos)
	return binary.AppendUvarint(dst, n.Gen)
}

func appendNodeInfos(dst []byte, ns []NodeInfo) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ns)))
	for i := range ns {
		dst = appendNodeInfo(dst, &ns[i])
	}
	return dst
}

// wireReader is a bounds-checked cursor over one binary frame. Every
// read either succeeds or latches err; callers check err once at the
// end, so a malformed frame can never panic or allocate past the bytes
// it actually carries.
type wireReader struct {
	b   []byte
	off int
	err error
}

var (
	errTruncated = fmt.Errorf("proto: decode: truncated binary frame")
	errBadMagic  = fmt.Errorf("proto: decode: frame does not start with the v1 format byte 0x%X", wireMagic)
)

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("proto: decode: "+format, args...)
	}
}

func (r *wireReader) rem() int { return len(r.b) - r.off }

func (r *wireReader) take(n int) []byte {
	if r.err != nil || n < 0 || r.rem() < n {
		if r.err == nil {
			r.err = errTruncated
		}
		return nil
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

func (r *wireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *wireReader) zigzag() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// svarint reads a zigzag varint destined for a plain int field; values
// outside the int range are hostile by construction.
func (r *wireReader) svarint() int {
	v := r.zigzag()
	if int64(int(v)) != v {
		r.fail("integer %d overflows int", v)
		return 0
	}
	return int(v)
}

// count reads a slice length and guards it against the bytes actually
// remaining: each element occupies at least minBytes on the wire, so a
// length claim beyond rem/minBytes is a lie and must not reach make().
func (r *wireReader) count(minBytes int) int {
	v := r.uvarint()
	if r.err != nil {
		return 0
	}
	if v > uint64(r.rem()/minBytes) {
		r.fail("length %d exceeds remaining %d bytes", v, r.rem())
		return 0
	}
	return int(v)
}

func (r *wireReader) i64() int64 {
	b := r.take(8)
	if r.err != nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b))
}

func (r *wireReader) point() geom.Point {
	b := r.take(16)
	if r.err != nil {
		return geom.Point{}
	}
	return geom.Point{
		X: math.Float64frombits(binary.LittleEndian.Uint64(b)),
		Y: math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
	}
}

func (r *wireReader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(r.rem()) {
		r.fail("string length %d exceeds remaining %d bytes", n, r.rem())
		return ""
	}
	return string(r.take(int(n))) // copies: the frame buffer is reused
}

func (r *wireReader) bytes() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n == 0 {
		return nil
	}
	if n > uint64(r.rem()) {
		r.fail("byte-slice length %d exceeds remaining %d bytes", n, r.rem())
		return nil
	}
	out := make([]byte, n)
	copy(out, r.take(int(n)))
	return out
}

func (r *wireReader) nodeInfo() NodeInfo {
	var n NodeInfo
	n.Addr = r.str()
	n.Pos = r.point()
	n.Gen = r.uvarint()
	return n
}

// minNodeInfoBytes is the smallest wire footprint of one NodeInfo: empty
// addr (1) + point (16) + gen (1).
const minNodeInfoBytes = 18

func (r *wireReader) nodeInfos() []NodeInfo {
	n := r.count(minNodeInfoBytes)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]NodeInfo, n)
	for i := range out {
		out[i] = r.nodeInfo()
	}
	return out
}

// decodeBinary parses one binary v1 frame. The caller has already
// checked the magic byte and the maxEnvelopeBytes cap.
func decodeBinary(b []byte) (*Envelope, error) {
	if len(b) < 2 {
		return nil, errTruncated
	}
	e := &Envelope{Type: Kind(b[1])}
	r := &wireReader{b: b, off: 2}
	flags := r.uvarint()

	e.Trace = flags&flagTrace != 0
	e.Found = flags&flagFound != 0
	e.Handoff = flags&flagHandoff != 0
	e.Shed = flags&flagShed != 0

	if flags&flagFrom != 0 {
		e.From = r.nodeInfo()
	}
	if flags&flagPurpose != 0 {
		e.Purpose = RoutedPurpose(r.uvarint())
	}
	if flags&flagTarget != 0 {
		e.Target = r.point()
	}
	if flags&flagOrigin != 0 {
		e.Origin = r.nodeInfo()
	}
	if flags&flagLink != 0 {
		e.Link = r.svarint()
	}
	if flags&flagHops != 0 {
		e.Hops = r.svarint()
	}
	if flags&flagQueryID != 0 {
		e.QueryID = r.uvarint()
	}
	if flags&flagPath != 0 {
		// A TraceHop is at least addr(1) + rule(1) + nanos(8).
		n := r.count(10)
		if r.err == nil && n > 0 {
			e.Path = make([]TraceHop, n)
			for i := range e.Path {
				e.Path[i].Addr = r.str()
				e.Path[i].Rule = r.str()
				e.Path[i].Nanos = r.i64()
			}
		}
	}
	if flags&flagNeighbors != 0 {
		e.Neighbors = r.nodeInfos()
	}
	if flags&flagTwoHop != 0 {
		// NodeInfo + empty VN list: 18 + 1.
		n := r.count(minNodeInfoBytes + 1)
		if r.err == nil && n > 0 {
			e.TwoHop = make([]NeighborRecord, n)
			for i := range e.TwoHop {
				e.TwoHop[i].Node = r.nodeInfo()
				e.TwoHop[i].VN = r.nodeInfos()
			}
		}
	}
	if flags&flagCloseCand != 0 {
		e.CloseCand = r.nodeInfos()
	}
	if flags&flagBack != 0 {
		// NodeInfo + link (1) + point (16).
		n := r.count(minNodeInfoBytes + 17)
		if r.err == nil && n > 0 {
			e.Back = make([]BackEntry, n)
			for i := range e.Back {
				e.Back[i].Origin = r.nodeInfo()
				e.Back[i].Link = r.svarint()
				e.Back[i].Target = r.point()
			}
		}
	}
	if flags&flagGranter != 0 {
		e.Granter = r.nodeInfo()
	}
	if flags&flagDeparted != 0 {
		n := r.count(1)
		if r.err == nil && n > 0 {
			e.Departed = make([]string, n)
			for i := range e.Departed {
				e.Departed[i] = r.str()
			}
		}
	}
	if flags&flagDepartedGen != 0 {
		n := r.count(1)
		if r.err == nil && n > 0 {
			e.DepartedGen = make([]uint64, n)
			for i := range e.DepartedGen {
				e.DepartedGen[i] = r.uvarint()
			}
		}
	}
	if flags&flagValue != 0 {
		e.Value = r.bytes()
	}
	if flags&flagVersion != 0 {
		e.Version = r.uvarint()
	}
	if flags&flagRecords != 0 {
		// Key (16) + value (1) + version (1) + deleted (1).
		n := r.count(19)
		if r.err == nil && n > 0 {
			e.Records = make([]StoreRecord, n)
			for i := range e.Records {
				rec := &e.Records[i]
				rec.Key = r.point()
				rec.Value = r.bytes()
				rec.Version = r.uvarint()
				switch d := r.take(1); {
				case r.err != nil:
				case d[0] == 1:
					rec.Deleted = true
				case d[0] != 0:
					r.fail("bad Deleted byte %#x", d[0])
				}
			}
		}
	}
	if flags&flagDigest != 0 {
		e.Digest = r.bytes()
	}

	if r.err != nil {
		return nil, r.err
	}
	if unknown := flags &^ knownFlags; unknown != 0 {
		return nil, fmt.Errorf("proto: decode: unknown flag bits %#x", unknown)
	}
	if r.off != len(b) {
		return nil, fmt.Errorf("proto: decode: %d trailing bytes after envelope", len(b)-r.off)
	}
	if err := e.validate(); err != nil {
		return nil, err
	}
	return e, nil
}
