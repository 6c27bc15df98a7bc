package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"bristle/internal/hashkey"
)

func roundTrip(t *testing.T, m *Message) *Message {
	t.Helper()
	frame, err := Encode(m)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(bytes.NewReader(frame))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	return got
}

func TestRoundTripAllTypes(t *testing.T) {
	types := []MsgType{TPing, TPong, TPublishAck, TDiscover,
		TDiscoverResp, TRegister, TRegisterAck, TUpdate, TJoin, TJoinResp,
		TLeafExchange, TPublishBatch}
	for _, typ := range types {
		m := &Message{
			Type:  typ,
			Key:   hashkey.FromName("subject"),
			Seq:   42,
			Found: typ == TDiscoverResp,
			Self:  Entry{Key: 7, Addr: "127.0.0.1:9000", Capacity: 3.5, TTLMilli: 1500, Epoch: 1<<40 | 7},
			Entries: []Entry{
				{Key: 1, Addr: "10.0.0.1:1", Capacity: 1, Epoch: 3},
				{Key: 2, Addr: "10.0.0.2:2", Capacity: 2, TTLMilli: 10},
			},
		}
		got := roundTrip(t, m)
		if !reflect.DeepEqual(m, got) {
			t.Fatalf("type %v: round trip mismatch:\n got %+v\nwant %+v", typ, got, m)
		}
	}
}

// TestRoundTripPublishBatch pins the batched-publish framing: an empty
// batch (a publisher with no owned records beyond Self), and a
// mixed-epoch batch where records written at different moves ride one
// frame without their epochs bleeding into each other.
func TestRoundTripPublishBatch(t *testing.T) {
	cases := []*Message{
		{ // empty batch
			Type: TPublishBatch,
			Self: Entry{Key: 11, Addr: "pub:1", Capacity: 2, Epoch: 9, Mobile: true},
		},
		{ // mixed epochs
			Type: TPublishBatch,
			Self: Entry{Key: 11, Addr: "pub:2", Capacity: 2, Epoch: 12, Mobile: true},
			Entries: []Entry{
				{Key: 100, Addr: "pub:2", TTLMilli: 500, Epoch: 12},
				{Key: 101, Addr: "pub:1", TTLMilli: 500, Epoch: 9},
				{Key: 102, Addr: "pub:0", Epoch: 0},
			},
		},
	}
	for i, m := range cases {
		got := roundTrip(t, m)
		if !reflect.DeepEqual(m, got) {
			t.Fatalf("case %d: round trip mismatch:\n got %+v\nwant %+v", i, got, m)
		}
	}
}

// TestEpochSurvivesRoundTrip pins the epoch's full 64-bit width.
func TestEpochSurvivesRoundTrip(t *testing.T) {
	for _, epoch := range []uint64{0, 1, 1 << 32, ^uint64(0)} {
		m := &Message{Type: TPublishBatch, Self: Entry{Key: 5, Addr: "a:1", Epoch: epoch}}
		if got := roundTrip(t, m); got.Self.Epoch != epoch {
			t.Fatalf("epoch %d decoded as %d", epoch, got.Self.Epoch)
		}
	}
}

// TestRoundTripJoinProof pins the v3 join-proof framing: a TJoin carrying
// the sender's public key, signature and region claim survives a round
// trip, with and without Found, and a proof-free message decodes with all
// three fields empty (not zero-length slices).
func TestRoundTripJoinProof(t *testing.T) {
	pub := bytes.Repeat([]byte{0xAB}, 32)
	sig := bytes.Repeat([]byte{0xCD}, 64)
	m := &Message{
		Type:   TJoin,
		Self:   Entry{Key: 9, Addr: "joiner:1", Epoch: 3},
		Pub:    pub,
		Sig:    sig,
		Region: "us-east",
	}
	got := roundTrip(t, m)
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("join proof round trip mismatch:\n got %+v\nwant %+v", got, m)
	}
	m.Found = true
	got = roundTrip(t, m)
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("found join proof round trip mismatch:\n got %+v\nwant %+v", got, m)
	}
	plain := roundTrip(t, &Message{Type: TJoin, Self: Entry{Addr: "j:2"}})
	if plain.Pub != nil || plain.Sig != nil || plain.Region != "" {
		t.Fatalf("proof-free message decoded proof fields: %+v", plain)
	}
}

func TestRoundTripEmpty(t *testing.T) {
	m := &Message{Type: TPing}
	got := roundTrip(t, m)
	if got.Type != TPing || got.Key != 0 || len(got.Entries) != 0 {
		t.Fatalf("empty message mismatch: %+v", got)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(key uint64, seq uint32, found bool, addr string, cap float64, n uint8, epoch uint64) bool {
		if len(addr) > 1000 {
			addr = addr[:1000]
		}
		m := &Message{
			Type:  TUpdate,
			Key:   hashkey.Key(key),
			Seq:   seq,
			Found: found,
			Self:  Entry{Key: hashkey.Key(key ^ 0xff), Addr: addr, Capacity: cap, Epoch: epoch},
		}
		for i := 0; i < int(n%20); i++ {
			m.Entries = append(m.Entries, Entry{Key: hashkey.Key(i), Addr: addr, Capacity: float64(i), Epoch: epoch ^ uint64(i)})
		}
		frame, err := Encode(m)
		if err != nil {
			return false
		}
		got, err := Decode(bytes.NewReader(frame))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(m, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDecodeBadMagic(t *testing.T) {
	frame, _ := Encode(&Message{Type: TPing})
	frame[0] ^= 0xff
	if _, err := Decode(bytes.NewReader(frame)); err != ErrBadMagic {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestDecodeBadVersion(t *testing.T) {
	frame, _ := Encode(&Message{Type: TPing})
	// An unknown future revision and both prior framings must be rejected
	// outright: a v1 entry is 8 bytes shorter, and a v2 body lacks the
	// join-proof fields, so either would misparse.
	for _, v := range []byte{99, 1, 2} {
		frame[2] = v
		if _, err := Decode(bytes.NewReader(frame)); err != ErrBadVersion {
			t.Fatalf("version %d: err = %v, want ErrBadVersion", v, err)
		}
	}
}

func TestDecodeOversizedRejected(t *testing.T) {
	frame, _ := Encode(&Message{Type: TPing})
	// Forge a huge length.
	frame[4], frame[5], frame[6], frame[7] = 0xff, 0xff, 0xff, 0xff
	if _, err := Decode(bytes.NewReader(frame)); err != ErrTooLarge {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestDecodeTruncatedFrame(t *testing.T) {
	frame, _ := Encode(&Message{Type: TPublishBatch, Self: Entry{Addr: "x:1"}})
	for cut := 1; cut < len(frame); cut += 3 {
		if _, err := Decode(bytes.NewReader(frame[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestDecodeCorruptEntryCount(t *testing.T) {
	frame, _ := Encode(&Message{Type: TJoinResp})
	// The entry count is the last 2 payload bytes; forge a huge count.
	frame[len(frame)-2], frame[len(frame)-1] = 0xff, 0xff
	if _, err := Decode(bytes.NewReader(frame)); err == nil {
		t.Fatal("forged entry count accepted")
	}
}

func TestEncodeAddressTooLong(t *testing.T) {
	m := &Message{Type: TPublishBatch, Self: Entry{Addr: strings.Repeat("a", 70000)}}
	if _, err := Encode(m); err == nil {
		t.Fatal("oversized address accepted")
	}
}

func TestDecodeMultipleFramesFromStream(t *testing.T) {
	var stream bytes.Buffer
	for i := 0; i < 5; i++ {
		frame, _ := Encode(&Message{Type: TPing, Seq: uint32(i)})
		stream.Write(frame)
	}
	r := bytes.NewReader(stream.Bytes())
	for i := 0; i < 5; i++ {
		m, err := Decode(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if m.Seq != uint32(i) {
			t.Fatalf("frame %d out of order: seq %d", i, m.Seq)
		}
	}
	if _, err := Decode(r); err != io.EOF {
		t.Fatalf("stream end: %v, want EOF", err)
	}
}

func TestMsgTypeStrings(t *testing.T) {
	if TPing.String() != "ping" || TDiscoverResp.String() != "discover-resp" {
		t.Error("MsgType.String mismatch")
	}
	if !strings.Contains(MsgType(200).String(), "200") {
		t.Error("unknown MsgType should include numeric value")
	}
}

// cutReader hands out its bytes up to a cut, then fails the read as a
// deadline would; moving the cut lets the rest through.
type cutReader struct {
	b   []byte
	cut int
}

var errCut = errors.New("cut")

func (r *cutReader) Read(p []byte) (int, error) {
	if r.cut == 0 {
		return 0, errCut
	}
	n := copy(p[:min(len(p), r.cut)], r.b)
	r.b, r.cut = r.b[n:], r.cut-n
	return n, nil
}

// TestFrameReaderResumesAtEveryCut: a frame cut at any byte — in the
// header or in the payload — comes out whole from the next Next, and
// Buffered says whether the bytes read ahead complete it.
func TestFrameReaderResumesAtEveryCut(t *testing.T) {
	want := &Message{Type: TDiscoverResp, Seq: 9, Found: true, Self: Entry{Key: 3, Addr: "192.0.2.1:9000", Epoch: 2}}
	frame, err := Encode(want)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(frame); cut++ {
		r := &cutReader{b: frame, cut: cut}
		fr := FrameReader{R: r}
		if _, err := fr.Next(); !errors.Is(err, errCut) {
			t.Fatalf("cut at %d: Next = %v, want the cut", cut, err)
		}
		if fr.Buffered(frame[cut : len(frame)-1]) {
			t.Fatalf("cut at %d: Buffered with a byte still missing", cut)
		}
		if !fr.Buffered(frame[cut:]) {
			t.Fatalf("cut at %d: not Buffered with the rest ahead", cut)
		}
		r.cut = len(frame)
		got, err := fr.Next()
		if err != nil || got.Seq != want.Seq || got.Self != want.Self || !got.Found {
			t.Fatalf("cut at %d: Next after the cut = (%+v, %v)", cut, got, err)
		}
	}
}
