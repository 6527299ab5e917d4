package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"
)

// FuzzReadFrame throws hostile byte streams at the wire decoder. Invariants:
// never panic, never allocate past the payload limit, and on every frame a
// well-formed writer produced, decode exactly what was written.
func FuzzReadFrame(f *testing.F) {
	// Well-formed frames.
	var ok bytes.Buffer
	WriteFrame(&ok, FrameSubscribe, []byte(`//a[b = 1]`))
	f.Add(ok.Bytes(), 1<<16)
	ok.Reset()
	WriteFrame(&ok, FramePing, nil)
	f.Add(ok.Bytes(), 1<<16)
	ok.Reset()
	WriteFrame(&ok, FrameDeliverAt, AppendDeliverAtPayload(nil, 7, []uint64{1, 2}, []byte(`<a/>`)))
	f.Add(ok.Bytes(), 1<<16)
	ok.Reset()
	WriteFrame(&ok, FrameDeliver, AppendDeliverPayloadTrace(nil, []uint64{3}, []byte(`<b/>`), 9))
	f.Add(ok.Bytes(), 1<<16)

	// Hostile corpus: zero length, length < 1 via underflow, oversized
	// length, truncated payload, truncated header.
	f.Add([]byte{0, 0, 0, 0}, 1<<16)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, 1<<16)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, FramePublish, 'x'}, 1<<16)
	f.Add([]byte{0, 0, 0, 10, FramePublish, 'x'}, 1<<16)
	f.Add([]byte{0, 0}, 1<<16)
	f.Add([]byte{0, 0, 0, 2, FramePublish, 'x', 'x', 'x'}, 4)

	f.Fuzz(func(t *testing.T, data []byte, maxPayload int) {
		if maxPayload < 0 || maxPayload > 1<<20 {
			maxPayload = 1 << 20
		}
		r := bytes.NewReader(data)
		fr, err := ReadFrame(r, maxPayload)
		if err != nil {
			var big *ErrFrameTooLarge
			if errors.As(err, &big) {
				// The oversized frame must not have been consumed past its
				// 5-byte header, and the reported size must exceed the limit.
				if big.Size <= big.Limit {
					t.Fatalf("ErrFrameTooLarge with size %d <= limit %d", big.Size, big.Limit)
				}
				if r.Len() != len(data)-5 {
					t.Fatalf("oversized frame consumed payload bytes: %d left of %d", r.Len(), len(data))
				}
			}
			return
		}
		if len(fr.Payload) > maxPayload {
			t.Fatalf("payload %d bytes exceeds limit %d", len(fr.Payload), maxPayload)
		}
		// A decoded frame must survive a write/read round-trip.
		var buf bytes.Buffer
		if err := WriteFrame(&buf, fr.Type, fr.Payload); err != nil {
			t.Fatalf("re-encoding decoded frame: %v", err)
		}
		// The re-encoded bytes must match the consumed prefix of the input.
		consumed := len(data) - r.Len()
		if !bytes.Equal(buf.Bytes(), data[:consumed]) {
			t.Fatalf("round-trip mismatch:\n in  %x\n out %x", data[:consumed], buf.Bytes())
		}
		fr2, err := ReadFrame(&buf, maxPayload)
		if err != nil {
			t.Fatalf("re-decoding: %v", err)
		}
		if fr2.Type != fr.Type || !bytes.Equal(fr2.Payload, fr.Payload) {
			t.Fatal("round-trip changed the frame")
		}
		// The typed payload parsers must not panic on arbitrary payloads.
		ParseUint64(fr.Payload)
		ParseSubscribeDurablePayload(fr.Payload)
		// Whatever parses as a delivery, the broker's direct frame writer
		// must encode to the very bytes the payload builders give, through
		// a writer with room for the header and through one without.
		sameFrame := func(typ byte, off uint64, ids []uint64, doc []byte, traceID uint64, payload []byte) {
			var want bytes.Buffer
			WriteFrame(&want, typ, payload)
			for _, size := range []int{16, 4096} {
				var got bytes.Buffer
				w := bufio.NewWriterSize(&got, size)
				w.WriteString("x") // frames rarely start at an empty buffer
				if err := writeDeliverFrame(w, typ, off, ids, doc, traceID); err != nil {
					t.Fatalf("writeDeliverFrame: %v", err)
				}
				w.Flush()
				if !bytes.Equal(got.Bytes()[1:], want.Bytes()) {
					t.Fatalf("frame 0x%02x through a %d-byte writer:\n got  %x\n want %x", typ, size, got.Bytes()[1:], want.Bytes())
				}
			}
		}
		if ids, doc, traceID, err := AppendDecodeDeliver(nil, fr.Payload); err == nil {
			sameFrame(FrameDeliver, 0, ids, doc, traceID, AppendDeliverPayloadTrace(nil, ids, doc, traceID))
		}
		if off, ids, doc, traceID, err := AppendDecodeDeliverAt(nil, fr.Payload); err == nil {
			sameFrame(FrameDeliverAt, off, ids, doc, traceID, AppendDeliverAtPayloadTrace(nil, off, ids, doc, traceID))
		}
	})
}

// FuzzReadFrameStream checks that a frame decoder pointed at a stream of
// frames stays in sync: decoding stops cleanly at EOF, never mid-frame
// garbage. The same stream read through a small bufio.Reader into one
// reused buffer, the path that peeks the header where it lies, must give
// the same frames and the same error.
func FuzzReadFrameStream(f *testing.F) {
	var buf bytes.Buffer
	WriteFrame(&buf, FramePing, nil)
	WriteFrame(&buf, FramePublish, []byte(`<a/>`))
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		br := bufio.NewReaderSize(bytes.NewReader(data), 16)
		var reused []byte
		for {
			fr, err := ReadFrame(r, 1<<16)
			fb, errb := ReadFrameInto(br, reused, 1<<16)
			if fmt.Sprint(err) != fmt.Sprint(errb) || fr.Type != fb.Type || !bytes.Equal(fr.Payload, fb.Payload) {
				t.Fatalf("bufio path read (0x%02x %q, %v), want (0x%02x %q, %v)", fb.Type, fb.Payload, errb, fr.Type, fr.Payload, err)
			}
			reused = fb.Payload
			if err != nil {
				if errors.Is(err, io.EOF) && r.Len() != 0 {
					t.Fatalf("clean EOF with %d bytes left", r.Len())
				}
				return
			}
		}
	})
}

// sanity check the corpus frame builder used above
func TestFuzzCorpusLengthField(t *testing.T) {
	var buf bytes.Buffer
	WriteFrame(&buf, FramePing, nil)
	if n := binary.BigEndian.Uint32(buf.Bytes()[:4]); n != 1 {
		t.Fatalf("PING length field = %d, want 1", n)
	}
}
