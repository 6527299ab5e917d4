package cluster

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/server"
)

// TestSessionConformance sends the same raw-frame scripts to a broker and to
// a gate in front of it and requires the same reply frame types in the same
// order from both: the protocol's corners are answered by one session loop
// (server.Session), whichever endpoint a client happens to be talking to.
func TestSessionConformance(t *testing.T) {
	const limit = 1 << 16
	frame := func(typ byte, payload []byte) []byte {
		var b bytes.Buffer
		server.WriteFrame(&b, typ, payload)
		return b.Bytes()
	}
	const pipelined = 300
	var burst []byte
	for seq := uint64(0); seq < pipelined; seq++ {
		burst = append(burst, frame(server.FramePublishAsync, server.AppendPublishAsyncPayload(nil, seq, []byte("<a/>")))...)
	}
	ping := frame(server.FramePing, nil)

	rows := []struct {
		name string
		send []byte
		// want is the reply frame types in order; a run of PUBACKS frames
		// counts once (how acks coalesce is timing).
		want   []byte
		closes bool   // the endpoint closes the connection after want
		errHas string // substring of the first ERR / PROTO_ERR payload
		acks   int    // publish outcomes to collect, each seq exactly once
	}{
		{name: "ping", send: append(ping, ping...), want: []byte{server.FramePong, server.FramePong}},
		{name: "unknown type", send: frame(0x3f, nil), want: []byte{server.FrameProtoErr}, closes: true,
			errHas: "unknown frame type 0x3f"},
		{name: "trace flag on a non-publish frame", send: frame(server.FramePing|server.FrameTraceFlag, nil),
			want: []byte{server.FrameProtoErr}, closes: true, errHas: "unknown frame type 0x43"},
		{name: "oversize", send: frame(server.FramePublish, make([]byte, limit+1)),
			want: []byte{server.FrameErr}, closes: true, errHas: fmt.Sprintf("exceeds limit %d", limit)},
		{name: "malformed ack", send: frame(server.FrameAck, []byte{1, 2, 3}),
			want: []byte{server.FrameErr}, closes: true, errHas: "8-byte payload"},
		{name: "malformed publish-async", send: frame(server.FramePublishAsync, []byte{1, 2, 3}),
			want: []byte{server.FrameErr}, closes: true, errHas: "short publish-async payload"},
		{name: "malformed traced prefix", send: frame(server.FramePublish|server.FrameTraceFlag, []byte{1, 2, 3}),
			want: []byte{server.FrameErr}, closes: true, errHas: "short traced payload"},
		{name: "unsubscribe of an unknown id", send: append(frame(server.FrameUnsubscribe, server.AppendUint64(nil, 99)), ping...),
			want: []byte{server.FrameErr, server.FramePong}, errHas: "99"},
		{name: "pipelined publishes", send: burst, want: []byte{server.FramePubAcks}, acks: pipelined},
	}

	node := startNode(t, server.Config{MaxDocBytes: limit})
	gate := startGate(t, []string{node.Addr()}, func(c *Config) { c.Client.MaxDocBytes = limit })
	endpoints := []struct{ name, addr string }{{"broker", node.Addr()}, {"gate", gate.Addr()}}

	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var got [2][]byte
			for i, ep := range endpoints {
				nc, err := net.Dial("tcp", ep.addr)
				if err != nil {
					t.Fatal(err)
				}
				defer nc.Close()
				nc.SetDeadline(time.Now().Add(10 * time.Second))
				go nc.Write(row.send)
				br := bufio.NewReader(nc)
				seen := map[uint64]bool{}
				firstErr := ""
				for len(got[i]) < len(row.want) || len(seen) < row.acks {
					f, err := server.ReadFrame(br, 1<<20)
					if err != nil {
						t.Fatalf("%s: after frames % x: %v (want % x)", ep.name, got[i], err, row.want)
					}
					switch f.Type {
					case server.FramePubAcks:
						acks, err := server.ParsePubAcksPayload(f.Payload)
						if err != nil || len(acks) > 512 {
							t.Fatalf("%s: PUBACKS with %d entries, err %v", ep.name, len(acks), err)
						}
						for _, a := range acks {
							if seen[a.Seq] || a.Seq >= uint64(row.acks) || a.Err != "" {
								t.Fatalf("%s: ack %+v: duplicate, never sent, or failed", ep.name, a)
							}
							seen[a.Seq] = true
						}
						if n := len(got[i]); n > 0 && got[i][n-1] == server.FramePubAcks {
							continue
						}
					case server.FrameErr, server.FrameProtoErr:
						if firstErr == "" {
							firstErr = string(f.Payload)
						}
					}
					got[i] = append(got[i], f.Type)
				}
				if !strings.Contains(firstErr, row.errHas) {
					t.Errorf("%s: error %q does not mention %q", ep.name, firstErr, row.errHas)
				}
				if row.closes {
					if f, err := server.ReadFrame(br, 1<<20); err == nil {
						t.Errorf("%s: frame 0x%02x after % x, want the connection closed", ep.name, f.Type, got[i])
					}
				}
			}
			if !bytes.Equal(got[1], got[0]) {
				t.Errorf("gate answered % x, broker % x", got[1], got[0])
			}
			if !bytes.Equal(got[0], row.want) {
				t.Errorf("broker answered % x, want % x", got[0], row.want)
			}
		})
	}
}
