package server

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	frames := []struct {
		typ     byte
		payload []byte
	}{
		{FrameSubscribe, []byte(`//a[b = 1]`)},
		{FramePing, nil},
		{FramePublish, []byte(`<a><b>1</b></a>`)},
		{FrameOK, AppendUint64(nil, 42)},
		{FrameErr, []byte("boom")},
	}
	for _, f := range frames {
		if err := WriteFrame(&buf, f.typ, f.payload); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range frames {
		got, err := ReadFrame(&buf, 1<<20)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != want.typ || !bytes.Equal(got.Payload, want.payload) {
			t.Fatalf("frame %d: got (0x%02x, %q), want (0x%02x, %q)",
				i, got.Type, got.Payload, want.typ, want.payload)
		}
	}
}

func TestFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FramePublish, make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	_, err := ReadFrame(&buf, 256)
	var tooLarge *ErrFrameTooLarge
	if !errors.As(err, &tooLarge) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
	if tooLarge.Size != 1024 || tooLarge.Limit != 256 {
		t.Errorf("ErrFrameTooLarge = %+v, want Size=1024 Limit=256", tooLarge)
	}
}

func TestFrameEmptyAndTruncated(t *testing.T) {
	if _, err := ReadFrame(bytes.NewReader(nil), 1<<20); err == nil {
		t.Error("reading an empty stream succeeded")
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FramePublish, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-2]
	if _, err := ReadFrame(bytes.NewReader(trunc), 1<<20); err == nil {
		t.Error("reading a truncated frame succeeded")
	}
}

func TestUint64Codec(t *testing.T) {
	for _, v := range []uint64{0, 1, 42, 1 << 40, ^uint64(0)} {
		b := AppendUint64(nil, v)
		got, err := ParseUint64(b)
		if err != nil || got != v {
			t.Errorf("ParseUint64(AppendUint64(%d)) = %d, %v", v, got, err)
		}
	}
	if _, err := ParseUint64([]byte{1, 2, 3}); err == nil {
		t.Error("short uint64 payload parsed")
	}
}

func TestDeliverPayloadCodec(t *testing.T) {
	doc := []byte(`<m><v>7</v></m>`)
	filters := []uint64{3, 17, 1 << 33}
	p := AppendDeliverPayload(nil, filters, doc)
	gotFilters, gotDoc, err := ParseDeliverPayload(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotFilters) != len(filters) {
		t.Fatalf("got %d filters, want %d", len(gotFilters), len(filters))
	}
	for i := range filters {
		if gotFilters[i] != filters[i] {
			t.Errorf("filter %d: got %d, want %d", i, gotFilters[i], filters[i])
		}
	}
	if !bytes.Equal(gotDoc, doc) {
		t.Errorf("doc: got %q, want %q", gotDoc, doc)
	}

	// Corrupt payloads fail cleanly.
	if _, _, err := ParseDeliverPayload(nil); err == nil {
		t.Error("nil deliver payload parsed")
	}
	if _, _, err := ParseDeliverPayload(p[:5]); err == nil {
		t.Error("truncated deliver payload parsed")
	}
}

func TestDeliverPayloadTraceCodec(t *testing.T) {
	doc := []byte(`<m><v>7</v></m>`)
	filters := []uint64{3, 17}

	// A zero trace id is byte-identical to the plain encoding — old clients
	// keep working against untraced deliveries.
	if plain, traced := AppendDeliverPayload(nil, filters, doc), AppendDeliverPayloadTrace(nil, filters, doc, 0); !bytes.Equal(plain, traced) {
		t.Errorf("zero-trace-id encoding differs from plain: %x vs %x", plain, traced)
	}

	p := AppendDeliverPayloadTrace(nil, filters, doc, 0xDEADBEEF)
	gotFilters, gotDoc, traceID, err := AppendDecodeDeliver(nil, p)
	if err != nil || traceID != 0xDEADBEEF {
		t.Fatalf("traceID = %#x, %v", traceID, err)
	}
	if len(gotFilters) != 2 || gotFilters[0] != 3 || gotFilters[1] != 17 || !bytes.Equal(gotDoc, doc) {
		t.Fatalf("round-trip = (%v, %q)", gotFilters, gotDoc)
	}
	// The flag is masked out of the filter count: the doc boundary is intact.
	if fs, d2, err := ParseDeliverPayload(p); err != nil || len(fs) != 2 || !bytes.Equal(d2, doc) {
		t.Fatalf("legacy parse of traced payload = (%v, %q, %v)", fs, d2, err)
	}
	// A traced payload too short for its trace id fails cleanly.
	short := AppendDeliverPayloadTrace(nil, filters, nil, 7)
	if _, _, _, err := AppendDecodeDeliver(nil, short[:len(short)-4]); err == nil {
		t.Error("truncated traced payload parsed")
	}

	// DeliverAt carries the same optional trace id after its offset.
	ap := AppendDeliverAtPayloadTrace(nil, 99, filters, doc, 7)
	off, fs, d2, tid, err := AppendDecodeDeliverAt(nil, ap)
	if err != nil || off != 99 || tid != 7 || len(fs) != 2 || !bytes.Equal(d2, doc) {
		t.Fatalf("deliver-at round-trip = (%d, %v, %q, %d, %v)", off, fs, d2, tid, err)
	}
}

func TestSubscribeDurablePayloadCodec(t *testing.T) {
	p := AppendSubscribeDurablePayload(nil, "billing-1", `//order[total > 1000]`)
	name, xpath, err := ParseSubscribeDurablePayload(p)
	if err != nil || name != "billing-1" || xpath != `//order[total > 1000]` {
		t.Fatalf("round-trip = (%q, %q, %v)", name, xpath, err)
	}
	// Empty name and empty xpath are representable (validation is the
	// server's job).
	if name, xpath, err = ParseSubscribeDurablePayload(AppendSubscribeDurablePayload(nil, "", "")); err != nil || name != "" || xpath != "" {
		t.Fatalf("empty round-trip = (%q, %q, %v)", name, xpath, err)
	}
	for _, bad := range [][]byte{nil, {0, 0}, {0, 0, 0, 9, 'x'}} {
		if _, _, err := ParseSubscribeDurablePayload(bad); err == nil {
			t.Errorf("ParseSubscribeDurablePayload(%x) succeeded", bad)
		}
	}
}

func TestDeliverAtPayloadCodec(t *testing.T) {
	doc := []byte(`<order total="2000"/>`)
	p := AppendDeliverAtPayload(nil, 1<<40, []uint64{3, 9}, doc)
	off, filters, got, err := ParseDeliverAtPayload(p)
	if err != nil || off != 1<<40 {
		t.Fatalf("offset = %d, %v", off, err)
	}
	if len(filters) != 2 || filters[0] != 3 || filters[1] != 9 || !bytes.Equal(got, doc) {
		t.Fatalf("round-trip = (%v, %q)", filters, got)
	}
	for _, bad := range [][]byte{nil, {1, 2, 3}, AppendUint64(nil, 7)} {
		if _, _, _, err := ParseDeliverAtPayload(bad); err == nil {
			t.Errorf("ParseDeliverAtPayload(%x) succeeded", bad)
		}
	}
}

func TestPublishAsyncPayloadCodec(t *testing.T) {
	doc := []byte(`<order total="2000"/>`)
	p := AppendPublishAsyncPayload(nil, 1<<50|7, doc)
	seq, got, err := ParsePublishAsyncPayload(p)
	if err != nil || seq != 1<<50|7 || !bytes.Equal(got, doc) {
		t.Fatalf("round-trip = (%d, %q, %v)", seq, got, err)
	}
	// An empty document is representable (the server rejects it, but at the
	// protocol layer it parses).
	if seq, got, err = ParsePublishAsyncPayload(AppendPublishAsyncPayload(nil, 3, nil)); err != nil || seq != 3 || len(got) != 0 {
		t.Fatalf("empty-doc round-trip = (%d, %q, %v)", seq, got, err)
	}
	for _, bad := range [][]byte{nil, {1, 2, 3}} {
		if _, _, err := ParsePublishAsyncPayload(bad); err == nil {
			t.Errorf("ParsePublishAsyncPayload(%x) succeeded", bad)
		}
	}
}

func TestPubAcksPayloadCodec(t *testing.T) {
	acks := []PubAck{
		{Seq: 1, Matches: 0},
		{Seq: 2, Matches: 1 << 33},
		{Seq: 9, Err: "server: wal append: disk on fire"},
	}
	p := AppendPubAcksPayload(nil, acks)
	got, err := ParsePubAcksPayload(p)
	if err != nil || len(got) != 3 {
		t.Fatalf("round-trip = (%v, %v)", got, err)
	}
	for i := range acks {
		if got[i] != acks[i] {
			t.Fatalf("ack %d = %+v, want %+v", i, got[i], acks[i])
		}
	}
	if got, err = ParsePubAcksPayload(AppendPubAcksPayload(nil, nil)); err != nil || len(got) != 0 {
		t.Fatalf("empty round-trip = (%v, %v)", got, err)
	}
	bads := [][]byte{
		nil,
		{0, 0, 0},                      // short header
		{0, 0, 0, 1},                   // count promises an entry that is absent
		p[:len(p)-1],                   // truncated error message
		append(p[:len(p):len(p)], 'x'), // trailing garbage
	}
	// Unknown status byte.
	unk := AppendPubAcksPayload(nil, []PubAck{{Seq: 1}})
	unk[len(unk)-9] = 0xff
	bads = append(bads, unk)
	for _, bad := range bads {
		if _, err := ParsePubAcksPayload(bad); err == nil {
			t.Errorf("ParsePubAcksPayload(%x) succeeded", bad)
		}
	}
}

// TestAppendDecodeDeliver: the ids are appended to a reused slice without
// allocating, the document aliases the payload, and DeliverAt decodes the
// same way after its offset.
func TestAppendDecodeDeliver(t *testing.T) {
	doc := []byte(`<m/>`)
	p := AppendDeliverPayloadTrace(nil, []uint64{5, 6, 7}, doc, 9)
	ids := make([]uint64, 0, 8)
	var err error
	var got []byte
	var traceID uint64
	if n := testing.AllocsPerRun(100, func() {
		ids, got, traceID, err = AppendDecodeDeliver(ids[:0], p)
	}); n != 0 {
		t.Errorf("AppendDecodeDeliver into a reused slice allocates %v times", n)
	}
	if err != nil || len(ids) != 3 || ids[2] != 7 || traceID != 9 || !bytes.Equal(got, doc) || &got[0] != &p[len(p)-len(doc)] {
		t.Fatalf("AppendDecodeDeliver = (%v, %q, %d, %v)", ids, got, traceID, err)
	}
	off, ids, got, _, err := AppendDecodeDeliverAt(ids[:1], AppendDeliverAtPayload(nil, 42, []uint64{8}, doc))
	if err != nil || off != 42 || len(ids) != 2 || ids[0] != 5 || ids[1] != 8 || !bytes.Equal(got, doc) {
		t.Fatalf("AppendDecodeDeliverAt = (%d, %v, %q, %v)", off, ids, got, err)
	}
}

// TestReadFrameInto: frames read into one buffer reuse it while it has the
// capacity, a larger frame gets a slice of its own, and a frame cut short in
// its header or payload reports io.ErrUnexpectedEOF, as ReadFrame always did.
func TestReadFrameInto(t *testing.T) {
	var wire bytes.Buffer
	bw := bufio.NewWriter(&wire)
	for _, p := range []string{"abc", "de", "fghijklmnop"} {
		if err := WriteFrame(bw, FramePublish, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	bw.Flush()
	br := bufio.NewReader(&wire)
	buf := make([]byte, 0, 4)
	for _, want := range []string{"abc", "de", "fghijklmnop"} {
		f, err := ReadFrameInto(br, buf, 64)
		if err != nil || f.Type != FramePublish || string(f.Payload) != want {
			t.Fatalf("ReadFrameInto = (%+v, %v), want %q", f, err, want)
		}
		if fits := len(want) <= cap(buf); fits != (&f.Payload[0] == &buf[:1][0]) {
			t.Fatalf("frame %q: payload in the buffer = %v, want %v", want, !fits, fits)
		}
	}
	if _, err := ReadFrameInto(br, buf, 64); err != io.EOF {
		t.Fatalf("ReadFrameInto at the end = %v, want io.EOF", err)
	}
	whole := []byte{0, 0, 0, 4, FramePublish, 'a', 'b', 'c'}
	for _, cut := range []int{2, 6} {
		if _, err := ReadFrameInto(bufio.NewReader(bytes.NewReader(whole[:cut])), nil, 64); err != io.ErrUnexpectedEOF {
			t.Errorf("frame cut at %d bytes: %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}
