// Package dispatch ships whole campaign shards to worker processes
// and networked worker agents.
//
// One coordinator serves both executors. Subprocess and Fleet are
// configurations that each build an ordered list of connectors — spawn
// (re-exec the current binary in a hidden worker mode, framed over the
// child's stdin/stdout), dial-out (Fleet.Addrs) and accept-in
// (Fleet.Listen) — and the list is the fallback order: fleet
// connectors, then spawn, then in-process execution. Every connector
// feeds one registry of framed connections (dnet.Conn, the same
// ReadFrame/WriteFrame/Close over pipes and sockets) speaking one
// length-prefixed JSON protocol: a version-checked hello (plus, on
// network connections, the campaign spec and its ack), then one
// request frame per shard (campaign name, plan hash, shard id, run
// indices) and one response frame back (encoded results plus an
// integrity hash). Every handshake is bounded by one timeout, and
// closing the registry closes connections still in handshake.
//
// The seam is hardened end to end, in one place for every connector:
// per-shard deadlines, crash, hang and missed-heartbeat detection,
// retry with capped exponential backoff and deterministic jitter on a
// fresh connection, straggler re-dispatch on network workers, response
// integrity verification and shard-granular checkpoint/resume.
// Everything the protocol moves is a pure function of campaign
// identity, so a dispatched campaign reduces byte-identically to a
// serial one; internal/campaign/chaos injects faults into this very
// seam to prove it. On the worker side one serve loop answers shards
// over pipes (Serve) and sockets (ServeNet, DialAndServe). See the
// dnet sub-package for the transport.
package dispatch

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"io"

	dnet "repro/internal/campaign/dispatch/net"
	"repro/internal/obs"
)

// protoVersion gates the frame protocol; parent and worker must agree.
// Version 2 wrapped worker→parent traffic in envelope frames so workers
// can interleave telemetry deltas with shard responses.
const protoVersion = 2

// hello is the first frame a worker writes after starting, proving the
// process came up and speaks our protocol version.
type hello struct {
	Proto int `json:"proto"`
	PID   int `json:"pid"`
	// Token identifies the worker's process instance (obs.ProcessToken).
	// A parent that reads its own token knows the "worker" runs in the
	// same process and shares its metric registry, so the parent skips
	// merging that worker's telemetry deltas (they are already counted).
	Token string `json:"token,omitempty"`
}

// request asks a worker to execute one shard of a campaign's plan.
type request struct {
	Seq      uint64 `json:"seq"`
	Campaign string `json:"campaign"`
	// PlanHash is campaign.PlanHash rendered %016x (JSON numbers cannot
	// carry 64-bit values exactly).
	PlanHash string `json:"plan_hash"`
	// Shard is the shard's deterministic FNV-1a id, rendered %016x.
	Shard string `json:"shard"`
	// Indices are the plan indices of the shard, ascending.
	Indices []int `json:"indices"`
	// Trace, when non-empty, is the parent campaign's trace id: the
	// worker records spans for this shard and ships them back on the
	// response. Empty means tracing is off and the worker records
	// nothing.
	Trace string `json:"trace,omitempty"`
	// Span is the parent-side dispatch span id, carried for diagnostics
	// (the parent re-parents returned spans itself when folding).
	Span uint64 `json:"span,omitempty"`
}

// runPayload is one run's encoded result inside a response.
type runPayload struct {
	Index   int    `json:"index"`
	Payload []byte `json:"payload"`
}

// response carries one shard's results (or the worker-side error).
type response struct {
	Seq   uint64 `json:"seq"`
	Shard string `json:"shard"`
	// Error, when non-empty, reports a campaign-level failure inside
	// the worker (a run returned an error or panicked). These are
	// deterministic, so the parent aborts instead of retrying.
	Error   string       `json:"error,omitempty"`
	Results []runPayload `json:"results,omitempty"`
	// Hash is payloadHash over (shard, results), rendered %016x. It is
	// computed worker-side before the frame enters the pipe, so any
	// corruption in transit is detected by the parent and the shard is
	// re-run.
	Hash string `json:"hash,omitempty"`
	// Spans are the worker-side spans recorded while serving this shard
	// (only when the request carried a trace id). They ride outside the
	// integrity hash — trace data is observational and must never gate
	// result acceptance.
	Spans []obs.SpanRec `json:"spans,omitempty"`
}

// envelope is one worker→parent frame after the hello: either a shard
// response or a batch of telemetry deltas (counter/histogram movement
// since the worker's previous metrics frame — see obs.DeltaTracker).
// Workers send the metrics frame for a shard before its response, so by
// the time the parent observes a campaign as finished every worker-side
// count has been merged.
type envelope struct {
	Resp    *response    `json:"resp,omitempty"`
	Metrics []obs.Series `json:"metrics,omitempty"`
	// Ping is a worker-agent heartbeat on network transports: proof of
	// life while a long shard computes. Subprocess workers never send
	// it (pipes cannot half-fail the way sockets do), so proto-v2
	// parents and workers interoperate unchanged.
	Ping *pingFrame `json:"ping,omitempty"`
}

// pingFrame is the heartbeat body; the sequence number only aids
// debugging — any arriving frame refreshes the peer's read deadline.
type pingFrame struct {
	Seq uint64 `json:"seq"`
}

// netConfig is the coordinator→worker frame that follows the hello on
// network connections: worker agents start independently of any
// campaign (unlike subprocess workers, whose spec rides in their
// environment), so the coordinator ships the campaign spec and the
// heartbeat interval at handshake. The worker acknowledges with a
// response envelope (Seq 0; Error carries a spec the agent cannot
// serve) before the first shard request.
type netConfig struct {
	// Spec is the opaque campaign spec (the experiment layer's encoded
	// WorkerSpec) the agent builds its campaign lookup from.
	Spec string `json:"spec"`
	// HeartbeatMs is the agent's ping interval; 0 disables heartbeats.
	HeartbeatMs int64 `json:"heartbeat_ms"`
	// Trace, when non-empty, is the coordinator's campaign trace id,
	// logged by the agent so operators can grep a fleet's logs by trace.
	// Per-shard tracing is governed by request.Trace, not this field.
	Trace string `json:"trace,omitempty"`
}

// hex64 renders a 64-bit id the way every frame and journal entry
// carries it.
func hex64(v uint64) string { return fmt.Sprintf("%016x", v) }

// payloadHash fingerprints one shard's output, bound to the shard's
// own id: FNV-1a over the shard id, then every (index, payload) pair.
// A response whose hash does not match its content — or whose shard id
// does not match the request — is treated as a corrupted result.
func payloadHash(shard uint64, results []runPayload) uint64 {
	h := fnv.New64a()
	hashUint64s(h, shard)
	for _, r := range results {
		hashUint64s(h, uint64(r.Index), uint64(len(r.Payload)))
		h.Write(r.Payload)
	}
	return h.Sum64()
}

// shardID derives a shard's deterministic identity from the campaign's
// plan hash, the bucket number and the member indices. It names the
// shard in diagnostics, journal entries and wire frames.
func shardID(planHash uint64, bucket int, indices []int) uint64 {
	h := fnv.New64a()
	hashUint64s(h, planHash, uint64(bucket))
	for _, i := range indices {
		hashUint64s(h, uint64(i))
	}
	return h.Sum64()
}

// hashUint64s feeds each value to h as 8 big-endian bytes.
func hashUint64s(h hash.Hash64, vs ...uint64) {
	var buf [8]byte
	for _, v := range vs {
		binary.BigEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
}

// writeFrame marshals v and writes it as one length-prefixed frame.
// The codec lives in the dnet sub-package so pipe and socket
// transports move identical bytes.
func writeFrame(w io.Writer, v any) error { return dnet.WriteFrame(w, v) }

// readFrame reads one length-prefixed frame into v. io.EOF at a frame
// boundary is returned as-is (clean shutdown); anything else that cuts
// a frame short is an unexpected-EOF error.
func readFrame(r io.Reader, v any) error { return dnet.ReadFrame(r, v) }
