package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
)

func TestClassifyRetryableVsFatal(t *testing.T) {
	cases := []struct {
		name      string
		err       error
		retryable bool
	}{
		{"nil", nil, false},
		{"bad version is fatal", ErrBadVersion, false},
		{"wrapped bad version is fatal", fmt.Errorf("recv: %w", ErrBadVersion), false},
		{"encode error is fatal", fmt.Errorf("%w: too big", ErrEncode), false},
		{"bad magic retryable", ErrBadMagic, true},
		{"truncated retryable", ErrTruncated, true},
		{"too large retryable", ErrTooLarge, true},
		{"eof retryable", io.EOF, true},
		{"closed pipe retryable", io.ErrClosedPipe, true},
		{"arbitrary transport error retryable", errors.New("transport: connection refused"), true},
	}
	for _, c := range cases {
		if got := Retryable(c.err); got != c.retryable {
			t.Errorf("%s: Retryable = %v, want %v", c.name, got, c.retryable)
		}
		if c.err != nil {
			if got := Fatal(c.err); got != !c.retryable {
				t.Errorf("%s: Fatal = %v, want %v", c.name, got, !c.retryable)
			}
		}
	}
}

func TestEncodeOversizeErrorsAreFatal(t *testing.T) {
	_, err := Encode(&Message{Type: TPing, Self: Entry{Addr: strings.Repeat("x", 70000)}})
	if !errors.Is(err, ErrEncode) {
		t.Fatalf("oversize address err = %v, want ErrEncode", err)
	}
	if Retryable(err) {
		t.Fatal("unencodable message classified retryable")
	}
	_, err = Encode(&Message{Type: TPing, Entries: make([]Entry, 70000)})
	if !errors.Is(err, ErrEncode) {
		t.Fatalf("oversize entry list err = %v, want ErrEncode", err)
	}
}

// FuzzDecode feeds arbitrary bytes to the frame decoder; any accepted
// message must re-encode cleanly (the decoder's bounds imply
// encodability). This is the corpus the CI smoke job exercises.
func FuzzDecode(f *testing.F) {
	seeds := []*Message{
		{Type: TPing},
		{Type: TDiscover, Key: 42, Seq: 7},
		{Type: TPublishBatch, Self: Entry{Key: 9, Addr: "10.0.0.1:1", Capacity: 2, TTLMilli: 500, Mobile: true, Epoch: 17}},
		{Type: TJoinResp, Found: true, Entries: []Entry{{Key: 1, Addr: "a:1"}, {Key: 2, Addr: "b:2"}}},
		// Batched publish: empty batch, and a mixed-epoch batch (records
		// written at different moves sharing one frame).
		{Type: TPublishBatch, Self: Entry{Key: 9, Addr: "10.0.0.1:1", Mobile: true, Epoch: 3}},
		{Type: TPublishBatch, Self: Entry{Key: 9, Addr: "10.0.0.1:2", Mobile: true, Epoch: 1 << 40}, Entries: []Entry{
			{Key: 100, Addr: "10.0.0.1:2", TTLMilli: 250, Epoch: 1 << 40},
			{Key: 101, Addr: "10.0.0.1:1", TTLMilli: 250, Epoch: 3},
			{Key: 102, Addr: "10.0.0.1:0"},
		}},
		{Type: TUpdate, Self: Entry{Key: 8, Addr: "m:3", Epoch: ^uint64(0)}, Entries: []Entry{{Key: 4, Addr: "w:1", Capacity: 1}}},
	}
	for _, m := range seeds {
		frame, err := Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Add([]byte{})
	f.Add([]byte{0xB2, 0x15})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(bytes.NewReader(data))
		if err != nil {
			return // rejected: fine
		}
		if _, err := Encode(m); err != nil {
			t.Fatalf("decoded message does not re-encode: %v (%+v)", err, m)
		}
	})
}
