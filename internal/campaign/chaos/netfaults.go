// Package chaos injects deterministic network faults into the fleet
// transport through NetFaults, a dnet.Tap. Tests put it on worker
// agents or on a coordinator to pin that the dispatch coordinator's
// recovery never changes campaign output.
package chaos

import (
	"encoding/binary"
	"hash/fnv"
	"strconv"
	"sync/atomic"
	"time"

	dnet "repro/internal/campaign/dispatch/net"
	"repro/internal/obs"
)

// Fault names one injected failure kind.
type Fault string

const (
	// FaultNone leaves the frame alone.
	FaultNone Fault = "none"
	// FaultDrop loses the frame.
	FaultDrop Fault = "drop"
	// FaultCorrupt flips bits in the frame body.
	FaultCorrupt Fault = "corrupt"
	// FaultReset closes the connection mid-frame.
	FaultReset Fault = "reset"
	// FaultDelay stalls the frame before delivery.
	FaultDelay Fault = "delay"
)

// NetFaults is a dnet.Tap that injects deterministic network faults
// into the fleet transport: dropped frames, corrupted frame bodies,
// connection resets and delayed delivery. It exercises the same
// recovery machinery a flaky network would — the coordinator's
// integrity checks, heartbeat dead-peer detection, shard retries and
// capped-backoff reconnects — while staying reproducible: each frame's
// fate is a pure function of (Seed, direction, ordinal).
//
// Frame ordinals restart at zero on every connection, so an unbounded
// deterministic fault that kills the handshake would kill every
// reconnect attempt the same way and the campaign could never
// converge. MaxFaults caps the total number of injected faults across
// all connections sharing the tap (0 means unlimited); fleet tests set
// it so chaos provably runs dry and the retry budget heals the rest.
type NetFaults struct {
	// Seed drives every fault decision; same seed, same faults.
	Seed int64
	// Per-kind fault probabilities in [0, 1] per frame; their
	// cumulative sum should stay <= 1.
	DropRate, CorruptRate, ResetRate, DelayRate float64
	// Delay is how long a delayed frame stalls before delivery.
	Delay time.Duration
	// SkipFrames exempts each connection's first N frames in each
	// direction — set it past the handshake (hello, netConfig, ack) so
	// faults land on shard traffic rather than refusing every
	// connection at birth.
	SkipFrames uint64
	// MaxFaults caps total injected faults across the tap's lifetime
	// (0 = unlimited).
	MaxFaults int64
	// OnFault observes every injected fault (may be called from many
	// goroutines).
	OnFault func(dir dnet.Direction, ordinal uint64, kind Fault)

	fired atomic.Int64
}

// Faults reports how many faults the tap has injected so far.
func (nf *NetFaults) Faults() int64 { return nf.fired.Load() }

// Frame decides one frame's fate. Concurrency-safe; called by every
// connection wearing this tap.
func (nf *NetFaults) Frame(dir dnet.Direction, ordinal uint64) dnet.Action {
	if ordinal < nf.SkipFrames {
		return dnet.Action{}
	}
	kind := nf.decide(dir, ordinal)
	if kind == FaultNone {
		return dnet.Action{}
	}
	if nf.MaxFaults > 0 {
		if n := nf.fired.Add(1); n > nf.MaxFaults {
			nf.fired.Add(-1)
			return dnet.Action{}
		}
	} else {
		nf.fired.Add(1)
	}
	if nf.OnFault != nil {
		nf.OnFault(dir, ordinal, kind)
	}
	if tel := obs.Active(); tel != nil {
		tel.Reg.Counter("repro_chaos_net_faults_total", obs.L("kind", string(kind))).Inc()
		tel.Events.Emit("chaos.netfault", map[string]string{
			"dir":     dir.String(),
			"ordinal": strconv.FormatUint(ordinal, 10),
			"kind":    string(kind),
		})
	}
	switch kind {
	case FaultDrop:
		return dnet.Action{Drop: true}
	case FaultCorrupt:
		return dnet.Action{Corrupt: true}
	case FaultReset:
		return dnet.Action{Reset: true}
	default: // FaultDelay
		return dnet.Action{Delay: nf.Delay}
	}
}

// decide maps (Seed, direction, ordinal) onto a fault kind: FNV-1a
// over the three values, finished with a 64-bit avalanche mix (FNV's
// high bits barely respond to trailing bytes) before the top 53 bits
// become a uniform draw in [0, 1).
func (nf *NetFaults) decide(dir dnet.Direction, ordinal uint64) Fault {
	h := fnv.New64a()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(nf.Seed))
	h.Write(buf[:])
	binary.BigEndian.PutUint64(buf[:], uint64(dir))
	h.Write(buf[:])
	binary.BigEndian.PutUint64(buf[:], ordinal)
	h.Write(buf[:])
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	u := float64(x>>11) / float64(1<<53)
	for _, band := range []struct {
		rate float64
		kind Fault
	}{
		{nf.DropRate, FaultDrop},
		{nf.CorruptRate, FaultCorrupt},
		{nf.ResetRate, FaultReset},
		{nf.DelayRate, FaultDelay},
	} {
		if u < band.rate {
			return band.kind
		}
		u -= band.rate
	}
	return FaultNone
}
