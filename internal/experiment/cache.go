package experiment

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/sut"
)

// goldenKey identifies one golden run. It covers everything recordGolden's
// output depends on: the target, the case identity and physics (ID
// feeds the case seed, P1/P2 feed the scenario), the campaign seed, and
// the run horizon options. Workers deliberately does not appear —
// parallelism must not change results.
type goldenKey struct {
	target   string
	seed     int64
	caseID   int
	p1       float64
	p2       float64
	maxRunMs int64
	tailMs   int64
}

func keyFor(opts Options, tc sut.Case) goldenKey {
	name := opts.Target
	if name == "" {
		name = sut.DefaultTarget
	}
	return goldenKey{
		target:   name,
		seed:     opts.Seed,
		caseID:   tc.ID,
		p1:       tc.P1,
		p2:       tc.P2,
		maxRunMs: opts.MaxRunMs,
		tailMs:   opts.TailMs,
	}
}

// shardKeyFor hashes the golden key into a work-distribution key. Every
// campaign shards its plan by this value, so a run's shard depends on
// target + seed + case + physics + horizons — the exact identity that
// keys the golden cache, and never Workers. All runs that share a
// golden land in one shard: a shard dispatched to a separate process
// computes only the reference runs it actually replays against.
// The default target keeps the pre-seam byte layout (no name prefix),
// so its shard assignment — and with it every scheduling-sensitive
// artifact like checkpoint journals — is unchanged.
func shardKeyFor(opts Options, tc sut.Case) uint64 {
	k := keyFor(opts, tc)
	h := fnv.New64a()
	if k.target != sut.DefaultTarget {
		fmt.Fprintf(h, "%s|", k.target)
	}
	fmt.Fprintf(h, "%d|%d|%v|%v|%d|%d",
		k.seed, k.caseID, k.p1, k.p2, k.maxRunMs, k.tailMs)
	return h.Sum64()
}

// GoldenCache memoizes fault-free reference runs process-wide. All seven
// campaign entry points share it, so a process that runs several
// campaigns (cmd/reproduce regenerates Tables 1, 4 and Figure 3 in one
// invocation; cmd/inject one campaign per run) computes the 25 golden
// runs once instead of once per campaign. Cached goldens are immutable
// and safe for concurrent readers.
type GoldenCache struct {
	mu     sync.Mutex
	runs   map[goldenKey]*golden
	hits   atomic.Int64
	misses atomic.Int64
}

// globalGoldens is the process-wide cache consulted by goldens().
var globalGoldens = &GoldenCache{runs: make(map[goldenKey]*golden)}

// lookup returns the cached golden for the key, if any.
func (c *GoldenCache) lookup(k goldenKey) (*golden, bool) {
	c.mu.Lock()
	g, ok := c.runs[k]
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	if tel := obs.Active(); tel != nil {
		if ok {
			tel.GoldenHits.Inc()
		} else {
			tel.GoldenMisses.Inc()
		}
	}
	return g, ok
}

// store publishes a computed golden.
func (c *GoldenCache) store(k goldenKey, g *golden) {
	c.mu.Lock()
	c.runs[k] = g
	size := len(c.runs)
	c.mu.Unlock()
	if tel := obs.Active(); tel != nil {
		tel.GoldenSize.Set(int64(size))
	}
}

// GoldenCacheStats reports process-wide cache traffic: cached reference
// runs currently held, lookup hits and misses.
func GoldenCacheStats() (size int, hits, misses int64) {
	globalGoldens.mu.Lock()
	size = len(globalGoldens.runs)
	globalGoldens.mu.Unlock()
	return size, globalGoldens.hits.Load(), globalGoldens.misses.Load()
}

// ClearGoldenCache drops every cached reference run. Tests use it to
// force recomputation; production campaigns never need to.
func ClearGoldenCache() {
	globalGoldens.mu.Lock()
	globalGoldens.runs = make(map[goldenKey]*golden)
	globalGoldens.mu.Unlock()
}
