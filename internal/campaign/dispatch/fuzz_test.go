package dispatch

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	dnet "repro/internal/campaign/dispatch/net"
	"repro/internal/obs"
)

// The decoders a coordinator runs on bytes it did not produce — frames
// off a pipe or socket, journal entries off disk — are fuzzed against
// two invariants: no input panics, and no input makes the decoder
// allocate beyond what the input could justify (never the MaxFrame a
// corrupted length prefix may claim). Plain `go test` runs the seeds
// under testdata/fuzz; `go test -fuzz FuzzReadEnvelope` explores.

// allocBound is the most a decoder may allocate for n input bytes:
// JSON expands a little (a 3-byte `{},` becomes a whole struct), plus
// a fixed allowance for buffers and bookkeeping.
func allocBound(n int) uint64 { return 256*uint64(n) + 1<<20 }

// allocated runs fn and reports the bytes it allocated.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// frame length-prefixes body the way the wire and the journal do.
func frame(body string) []byte {
	out := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
	return append(out, body...)
}

func FuzzReadEnvelope(f *testing.F) {
	resp := response{Seq: 3, Shard: hex64(7), Results: []runPayload{{Index: 1, Payload: []byte(`27`)}}}
	resp.Hash = hex64(payloadHash(7, resp.Results))
	for _, env := range []envelope{
		{Resp: &resp},
		{Metrics: []obs.Series{{Name: "repro_worker_runs_total", Kind: "counter", Value: 4}}},
		{Ping: &pingFrame{Seq: 9}},
	} {
		var b bytes.Buffer
		if err := writeFrame(&b, env); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
	}
	f.Add(frame(`{"resp":{"seq":1,"results":[{},{},{}]}}`))
	f.Add(frame(`{"metrics":[{"counts":[1,2,3]}]`)) // malformed JSON
	f.Add([]byte{0x0c, 0x00, 0x00, 0x00, '{'})      // a ~200 MB claim, one byte sent
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})           // beyond MaxFrame
	f.Fuzz(func(t *testing.T, data []byte) {
		// The package codec (pipes, journal) and the framed connection
		// (sockets, spawned children) read the same bytes; drain each
		// until the stream errors out.
		var plain, conn []envelope
		if n := allocated(func() {
			r := bytes.NewReader(data)
			for {
				var env envelope
				if dnet.ReadFrame(r, &env) != nil {
					return
				}
				plain = append(plain, env)
			}
		}); n > allocBound(len(data)) {
			t.Fatalf("ReadFrame allocated %d bytes for a %d-byte input", n, len(data))
		}
		if n := allocated(func() {
			c := dnet.NewConn(dnet.Pipe(bytes.NewReader(data), io.Discard), nil, 0)
			for {
				var env envelope
				if c.ReadFrame(&env) != nil {
					return
				}
				conn = append(conn, env)
			}
		}); n > allocBound(len(data)) {
			t.Fatalf("Conn.ReadFrame allocated %d bytes for a %d-byte input", n, len(data))
		}
		if len(plain) != len(conn) {
			t.Fatalf("ReadFrame decoded %d frames, Conn.ReadFrame %d", len(plain), len(conn))
		}
	})
}

func FuzzOpenJournal(f *testing.F) {
	entry := func(shard uint64, results []runPayload) []byte {
		var b bytes.Buffer
		e := journalEntry{Campaign: "cubes", PlanHash: hex64(42), Shard: hex64(shard), Results: results,
			Hash: hex64(payloadHash(shard, results))}
		if err := writeFrame(&b, e); err != nil {
			f.Fatal(err)
		}
		return b.Bytes()
	}
	good := append(entry(7, []runPayload{{Index: 0, Payload: []byte(`7`)}}), entry(9, nil)...)
	f.Add(good)
	f.Add(append(good[:len(good):len(good)], 0, 0, 1, 0, '{', '"')) // torn tail
	bad := bytes.Replace(entry(5, []runPayload{{Index: 2, Payload: []byte(`8`)}}), []byte(`"OA=="`), []byte(`"OQ=="`), 1)
	f.Add(bad) // payload no longer matches its hash
	f.Add([]byte{})
	f.Add([]byte{0x0c, 0x00, 0x00, 0x00, '{'})
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var j *journal
		var err error
		if n := allocated(func() { j, err = openJournal(path) }); n > allocBound(len(data)) {
			t.Fatalf("openJournal allocated %d bytes for a %d-byte file", n, len(data))
		}
		if err != nil {
			t.Fatalf("openJournal: %v", err)
		}
		want := len(j.entries) + 1
		if _, dup := j.entries[journalKey{"fuzz", hex64(1), hex64(2)}]; dup {
			want--
		}
		for k, e := range j.entries {
			if e.Hash != hex64(payloadHash(parseHex64(k.shard), e.Results)) {
				t.Fatalf("openJournal kept shard %s whose hash does not match its results", k.shard)
			}
		}
		// Whatever the tail held, the file now ends on a frame boundary:
		// a fresh append survives a reload alongside every kept entry.
		if err := j.append("fuzz", hex64(1), hex64(2), []runPayload{{Index: 0, Payload: []byte(`1`)}}); err != nil {
			t.Fatal(err)
		}
		j.close()
		j2, err := openJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		defer j2.close()
		if _, ok := j2.lookup("fuzz", hex64(1), hex64(2)); !ok || len(j2.entries) != want {
			t.Fatalf("after truncation and one append, reload holds %d entries, want %d (appended entry found: %v)",
				len(j2.entries), want, ok)
		}
	})
}
