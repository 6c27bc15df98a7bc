// Package wire defines the binary protocol a live Bristle node speaks:
// length-prefixed, versioned frames carrying the location-management
// operations of Section 2.3 (publish, discover, register, update) plus the
// overlay maintenance traffic (join, leaf exchange, ping).
//
// Encoding is deliberately simple and explicit — fixed-width big-endian
// integers and length-prefixed strings via encoding/binary — so any
// implementation can interoperate without a schema compiler.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"bristle/internal/hashkey"
)

// Protocol constants.
const (
	// Magic marks every frame; receivers drop streams with wrong magic.
	Magic uint16 = 0xB215
	// Version is the protocol revision. Revision 2 added the per-publisher
	// Epoch to Entry (and the TPublishBatch message); revision 3 added the
	// join-proof fields (Pub, Sig, Region) to every message body. Each
	// changed the framing, so older peers are rejected rather than
	// misparsed. The flags byte's 0x02 bit is reserved: an older
	// revision-3 peer may set it on a join, and decode ignores it.
	Version uint8 = 3
	// MaxFrame bounds a frame's payload to keep malicious peers from
	// forcing huge allocations.
	MaxFrame = 1 << 20
)

// MsgType identifies a frame's payload.
type MsgType uint8

const (
	// TPing / TPong are liveness probes.
	TPing MsgType = iota + 1
	TPong
	// 3 was TPublish, the one-record publish: every publish is a
	// TPublishBatch now, and the number stays reserved.
	_
	// TPublishAck confirms a publish.
	TPublishAck
	// TDiscover asks the stationary layer for a key's current address.
	TDiscover
	// TDiscoverResp answers a TDiscover.
	TDiscoverResp
	// TRegister records the sender's interest in a node's movement.
	TRegister
	// TRegisterAck confirms a registration.
	TRegisterAck
	// TUpdate carries a location update down an LDT, with the subtree the
	// receiver must advertise to (Figure 4 delegation).
	TUpdate
	// TJoin asks a bootstrap node to admit the sender to the ring.
	TJoin
	// TJoinResp returns the admitted node's neighbors.
	TJoinResp
	// TLeafExchange shares leaf-set entries during stabilization.
	TLeafExchange
	// TPublishBatch publishes every record in Entries at the receiver in
	// one atomic ingest — the O(replicas) move path for a node that owns
	// many keys. Self identifies the publisher; acknowledged by
	// TPublishAck like a single publish.
	TPublishBatch
)

// String names the message type.
func (t MsgType) String() string {
	switch t {
	case TPing:
		return "ping"
	case TPong:
		return "pong"
	case TPublishAck:
		return "publish-ack"
	case TDiscover:
		return "discover"
	case TDiscoverResp:
		return "discover-resp"
	case TRegister:
		return "register"
	case TRegisterAck:
		return "register-ack"
	case TUpdate:
		return "update"
	case TJoin:
		return "join"
	case TJoinResp:
		return "join-resp"
	case TLeafExchange:
		return "leaf-exchange"
	case TPublishBatch:
		return "publish-batch"
	default:
		return fmt.Sprintf("msgtype(%d)", uint8(t))
	}
}

// Errors.
var (
	ErrBadMagic   = errors.New("wire: bad magic")
	ErrBadVersion = errors.New("wire: unsupported version")
	ErrTooLarge   = errors.New("wire: frame exceeds MaxFrame")
	ErrTruncated  = errors.New("wire: truncated payload")
)

// Entry is a serializable state-pair: a node's key, dialable address, and
// capacity (capacities ride along so registries can schedule LDTs).
type Entry struct {
	Key      hashkey.Key
	Addr     string
	Capacity float64
	TTLMilli uint32 // lease duration in milliseconds; 0 = no lease
	Mobile   bool   // mobile-layer node: never a location-record owner
	// Epoch is the publisher's monotonic move counter: every rebind bumps
	// it, and receivers apply newest-epoch-wins so a delayed or duplicated
	// frame can never resurrect a pre-move address. 0 = unordered (legacy
	// senders); an unordered entry never displaces an ordered one.
	Epoch uint64
}

// Message is a decoded frame.
type Message struct {
	Type MsgType
	// Key is the subject key (target of discover/publish/update/join).
	Key hashkey.Key
	// Self describes the sender where relevant (publish, register, join).
	Self Entry
	// Found reports success on response messages.
	Found bool
	// Entries carries neighbor lists (join-resp, leaf-exchange) or the
	// delegated LDT subset (update).
	Entries []Entry
	// Seq correlates requests and responses on a shared connection.
	Seq uint32
	// Pub is the sender's public identity key and Sig its signature over
	// the canonical join statement — the self-certifying ID proof carried
	// on TJoin. Region is the region the sender claims its key was derived
	// under (empty for mobile nodes). All three are empty on messages that
	// carry no proof.
	Pub    []byte
	Sig    []byte
	Region string
}

// headerSize is the fixed frame preamble: magic (2), version (1),
// type (1), payload length (4).
const headerSize = 8

// payloadPool recycles decode scratch: the frame payload is parsed and
// fully copied into the returned Message, so the raw bytes can be reused.
var payloadPool = sync.Pool{
	New: func() interface{} { b := make([]byte, 0, 1024); return &b },
}

// msgPool recycles decoded Messages, and entryPool their Entries backing
// arrays, so a receive loop that fully consumes each frame and returns it
// with PutMessage decodes a steady stream — including multi-thousand-entry
// publish batches — without a per-frame allocation.
var msgPool = sync.Pool{
	New: func() interface{} { return new(Message) },
}

var entryPool = sync.Pool{
	New: func() interface{} { s := make([]Entry, 0, 64); return &s },
}

// maxPooledEntries bounds the Entries capacity worth caching: anything a
// legal frame can carry (the 16-bit count) qualifies, outliers are left
// to the GC.
const maxPooledEntries = 1 << 16

func getEntrySlice(n int) []Entry {
	sp := entryPool.Get().(*[]Entry)
	s := *sp
	if cap(s) < n {
		s = make([]Entry, 0, n)
	}
	return s[:0]
}

// GetMessage borrows a zeroed Message from the codec's pool, for a sender
// that builds a frame and returns it with PutMessage once it is written:
// the pool then gives as many as it takes on a node that only answers.
func GetMessage() *Message { return msgPool.Get().(*Message) }

// PutMessage returns a Message produced by Decode to the codec's pool.
// Only call it from a receive path that fully consumed the message (no
// reference to the Message or its Entries slice may survive the call;
// values copied out of them, including Addr strings, are safe). Passing
// a Message that did not come from Decode is allowed and simply donates
// it to the pool.
func PutMessage(m *Message) {
	if m == nil {
		return
	}
	if m.Entries != nil && cap(m.Entries) <= maxPooledEntries {
		es := m.Entries[:0]
		entryPool.Put(&es)
	}
	*m = Message{}
	msgPool.Put(m)
}

// AppendFrame appends m encoded as one complete frame to dst and returns
// the extended slice. Appending to a reused dst (a conn's output buffer)
// makes the encode path allocation-free.
func AppendFrame(dst []byte, m *Message) ([]byte, error) {
	start := len(dst)
	dst = append(dst, byte(Magic>>8), byte(Magic&0xFF), Version, byte(m.Type), 0, 0, 0, 0)
	dst = binary.BigEndian.AppendUint64(dst, uint64(m.Key))
	dst = binary.BigEndian.AppendUint32(dst, m.Seq)
	var flags byte
	if m.Found {
		flags |= 1
	}
	dst = append(dst, flags)
	var err error
	if dst, err = appendEntry(dst, m.Self); err != nil {
		return nil, err
	}
	if dst, err = appendBytes(dst, m.Pub, "public key"); err != nil {
		return nil, err
	}
	if dst, err = appendBytes(dst, m.Sig, "signature"); err != nil {
		return nil, err
	}
	if dst, err = appendBytes(dst, []byte(m.Region), "region"); err != nil {
		return nil, err
	}
	if len(m.Entries) > 65535 {
		return nil, fmt.Errorf("%w: too many entries (%d)", ErrEncode, len(m.Entries))
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(m.Entries)))
	for _, e := range m.Entries {
		if dst, err = appendEntry(dst, e); err != nil {
			return nil, err
		}
	}
	size := len(dst) - start - headerSize
	if size > MaxFrame {
		return nil, ErrTooLarge
	}
	binary.BigEndian.PutUint32(dst[start+4:start+8], uint32(size))
	return dst, nil
}

// Encode serializes the message as one frame.
func Encode(m *Message) ([]byte, error) { return AppendFrame(nil, m) }

// Decode parses one frame from r (blocking until a full frame arrives).
func Decode(r io.Reader) (*Message, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	mtype, size, err := parseHeader(&hdr)
	if err != nil {
		return nil, err
	}
	pb := payloadPool.Get().(*[]byte)
	payload := payloadOf(pb, size)
	if _, err := io.ReadFull(r, payload); err != nil {
		*pb = payload[:0]
		payloadPool.Put(pb)
		return nil, err
	}
	return decodePayload(mtype, pb)
}

// FrameReader decodes frames from a stream and survives a read that fails
// part-way through a frame, as one cut by a deadline does: it keeps what it
// read of the frame, and the next Next resumes where that read left off.
// Decode, which starts every call at a frame boundary, cannot resume.
type FrameReader struct {
	R io.Reader

	hdr [headerSize]byte
	got int     // bytes of the frame in progress read so far, header first
	pb  *[]byte // its payload's scratch, from payloadPool once the header is in
}

// Next reads the next frame, or the rest of the one a failed read cut.
func (fr *FrameReader) Next() (*Message, error) {
	for fr.got < headerSize {
		n, err := fr.R.Read(fr.hdr[fr.got:])
		fr.got += n
		if err != nil {
			return nil, err
		}
	}
	mtype, size, err := parseHeader(&fr.hdr)
	if err != nil {
		return nil, err
	}
	if fr.pb == nil {
		fr.pb = payloadPool.Get().(*[]byte)
		payloadOf(fr.pb, size)
	}
	payload := *fr.pb
	for off := fr.got - headerSize; off < size; off = fr.got - headerSize {
		n, err := fr.R.Read(payload[off:])
		fr.got += n
		if err != nil {
			return nil, err
		}
	}
	pb := fr.pb
	fr.got, fr.pb = 0, nil
	return decodePayload(mtype, pb)
}

// Buffered reports whether Next would return without reading R: ahead
// holds the bytes R has already read past the frame in progress, and they
// complete it, or hold a whole frame.
func (fr *FrameReader) Buffered(ahead []byte) bool {
	hdr := fr.hdr
	if fr.got < headerSize && fr.got+copy(hdr[fr.got:], ahead) < headerSize {
		return false
	}
	_, size, err := parseHeader(&hdr)
	return err != nil || fr.got+len(ahead) >= headerSize+size // an error returns at once too
}

// parseHeader checks a frame's preamble and returns its type and payload
// size.
func parseHeader(hdr *[headerSize]byte) (MsgType, int, error) {
	if binary.BigEndian.Uint16(hdr[0:2]) != Magic {
		return 0, 0, ErrBadMagic
	}
	if hdr[2] != Version {
		return 0, 0, ErrBadVersion
	}
	size := binary.BigEndian.Uint32(hdr[4:8])
	if size > MaxFrame {
		return 0, 0, ErrTooLarge
	}
	return MsgType(hdr[3]), int(size), nil
}

// payloadOf resizes pb's buffer to size, growing it if it is short, and
// returns it.
func payloadOf(pb *[]byte, size int) []byte {
	if cap(*pb) < size {
		*pb = make([]byte, size)
	}
	*pb = (*pb)[:size]
	return *pb
}

// decodePayload decodes a whole payload, held in pb's buffer, and returns
// the buffer to payloadPool.
func decodePayload(mtype MsgType, pb *[]byte) (*Message, error) {
	m := GetMessage()
	err := decodeBody(m, mtype, *pb)
	*pb = (*pb)[:0]
	payloadPool.Put(pb)
	if err != nil {
		PutMessage(m)
		return nil, err
	}
	return m, nil
}

func decodeBody(m *Message, mtype MsgType, p []byte) error {
	m.Type = mtype
	if len(p) < 13 { // key(8) + seq(4) + flags(1)
		return ErrTruncated
	}
	m.Key = hashkey.Key(binary.BigEndian.Uint64(p))
	m.Seq = binary.BigEndian.Uint32(p[8:])
	m.Found = p[12]&1 != 0
	p = p[13:]
	e, p, err := readEntry(p, "")
	if err != nil {
		return err
	}
	m.Self = e
	var pub, sig, region []byte
	if pub, p, err = readBytes(p); err != nil {
		return err
	}
	if sig, p, err = readBytes(p); err != nil {
		return err
	}
	if region, p, err = readBytes(p); err != nil {
		return err
	}
	// The payload buffer is pooled; proof fields must be copied out. The
	// common case (no proof) copies nothing.
	if len(pub) > 0 {
		m.Pub = append([]byte(nil), pub...)
	}
	if len(sig) > 0 {
		m.Sig = append([]byte(nil), sig...)
	}
	if len(region) > 0 {
		m.Region = string(region)
	}
	if len(p) < 2 {
		return ErrTruncated
	}
	count := binary.BigEndian.Uint16(p)
	p = p[2:]
	if int(count) > len(p) { // each entry is ≥1 byte; cheap sanity bound
		return ErrTruncated
	}
	if count > 0 {
		m.Entries = getEntrySlice(int(count))
	}
	// A batch's entries usually repeat one publisher address; interning
	// against the previous entry's Addr makes an 8k-entry batch decode
	// with ~1 address allocation instead of 8k.
	prev := m.Self.Addr
	for i := 0; i < int(count); i++ {
		if e, p, err = readEntry(p, prev); err != nil {
			return err
		}
		prev = e.Addr
		m.Entries = append(m.Entries, e)
	}
	return nil
}

// appendBytes writes a 16-bit-length-prefixed byte field. Empty fields
// cost two bytes.
func appendBytes(dst, b []byte, what string) ([]byte, error) {
	if len(b) > 65535 {
		return nil, fmt.Errorf("%w: %s too long (%d bytes)", ErrEncode, what, len(b))
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(b)))
	return append(dst, b...), nil
}

// readBytes reads a 16-bit-length-prefixed byte field, returning a view
// into p (callers must copy before the buffer is recycled).
func readBytes(p []byte) ([]byte, []byte, error) {
	if len(p) < 2 {
		return nil, p, ErrTruncated
	}
	n := int(binary.BigEndian.Uint16(p))
	p = p[2:]
	if len(p) < n {
		return nil, p, ErrTruncated
	}
	return p[:n], p[n:], nil
}

func appendEntry(dst []byte, e Entry) ([]byte, error) {
	if len(e.Addr) > 65535 {
		return nil, fmt.Errorf("%w: address too long (%d bytes)", ErrEncode, len(e.Addr))
	}
	dst = binary.BigEndian.AppendUint64(dst, uint64(e.Key))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(e.Addr)))
	dst = append(dst, e.Addr...)
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(e.Capacity))
	dst = binary.BigEndian.AppendUint32(dst, e.TTLMilli)
	dst = binary.BigEndian.AppendUint64(dst, e.Epoch)
	var flags byte
	if e.Mobile {
		flags |= 1
	}
	dst = append(dst, flags)
	return dst, nil
}

func readEntry(p []byte, prev string) (Entry, []byte, error) {
	var e Entry
	if len(p) < 10 { // key(8) + addrlen(2)
		return e, p, ErrTruncated
	}
	e.Key = hashkey.Key(binary.BigEndian.Uint64(p))
	alen := int(binary.BigEndian.Uint16(p[8:]))
	p = p[10:]
	if len(p) < alen+21 { // addr + capacity(8) + ttl(4) + epoch(8) + flags(1)
		return e, p, ErrTruncated
	}
	// The string(...) == prev comparison compiles without allocating, so
	// a repeated address costs nothing and a new one costs one copy.
	if alen == len(prev) && string(p[:alen]) == prev {
		e.Addr = prev
	} else {
		e.Addr = string(p[:alen])
	}
	p = p[alen:]
	e.Capacity = math.Float64frombits(binary.BigEndian.Uint64(p))
	e.TTLMilli = binary.BigEndian.Uint32(p[8:])
	e.Epoch = binary.BigEndian.Uint64(p[12:])
	e.Mobile = p[20]&1 != 0
	return e, p[21:], nil
}
