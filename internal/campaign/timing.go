package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/obs"
)

// Timing is one row of the BENCH_campaigns.json report: how many runs
// a campaign executed, how long it took, and the throughput. The
// telemetry-derived fields (shard re-dispatches, shard latency
// percentiles) are omitted when zero, so reports from telemetry-free
// runs keep the original schema exactly.
type Timing struct {
	Campaign   string  `json:"campaign"`
	Runs       int     `json:"runs"`
	WallS      float64 `json:"wall_s"`
	RunsPerSec float64 `json:"runs_per_sec"`
	// RunsPlanned is the size of the full (exact) injection grid the
	// campaign stands for; RunsExecuted is what actually ran after
	// equivalence pruning and early stopping, and RunsSaved is the
	// difference. For exact campaigns all three agree (saved = 0).
	RunsPlanned  int `json:"runs_planned"`
	RunsExecuted int `json:"runs_executed"`
	RunsSaved    int `json:"runs_saved"`
	// ShardRetries counts shard re-dispatches by the subprocess
	// dispatcher during this campaign.
	ShardRetries int64 `json:"shard_retries,omitempty"`
	// FleetReconnects counts reconnects to lost fleet workers during
	// this campaign; StragglerRedispatches counts duplicate shard
	// dispatches racing stragglers. Both zero (and omitted) outside
	// fleet dispatch.
	FleetReconnects       int64 `json:"fleet_reconnects,omitempty"`
	StragglerRedispatches int64 `json:"straggler_redispatches,omitempty"`
	// ShardP50Ms / ShardP99Ms estimate per-shard wall-time percentiles
	// (milliseconds) from the shard-duration histogram's movement.
	ShardP50Ms float64 `json:"shard_p50_ms,omitempty"`
	ShardP99Ms float64 `json:"shard_p99_ms,omitempty"`
	// AllocsPerOp / AllocBytesPerOp record per-operation allocation
	// counts for solver rows (cmd/place's analytic benchmarks), where
	// "op" is one run of the measured operation (Runs counts the
	// repetitions). Zero for injection campaigns.
	AllocsPerOp     float64 `json:"allocs_per_op,omitempty"`
	AllocBytesPerOp float64 `json:"alloc_bytes_per_op,omitempty"`
	// SlotsSimulated counts the scheduler slots the campaign's
	// permeability runs executed. SlotsFastForwarded, SlotsDecided and
	// SlotsConverged count the slots of their golden horizons they
	// skipped: before the restored golden checkpoint, after the outcome
	// was decided, and after the run rejoined its golden run. Zero (and
	// omitted) for other campaigns and without telemetry.
	SlotsSimulated     int64 `json:"slots_simulated,omitempty"`
	SlotsFastForwarded int64 `json:"slots_fast_forwarded,omitempty"`
	SlotsDecided       int64 `json:"slots_stopped_decided,omitempty"`
	SlotsConverged     int64 `json:"slots_stopped_converged,omitempty"`
	// RunsDecided, RunsConverged and RunsHorizon count the permeability
	// runs by how they ended; SlotsHorizon is the part of SlotsSimulated
	// that the horizon runs executed. Zero (and omitted) like the slots.
	RunsDecided   int64 `json:"runs_stopped_decided,omitempty"`
	RunsConverged int64 `json:"runs_stopped_converged,omitempty"`
	RunsHorizon   int64 `json:"runs_horizon,omitempty"`
	SlotsHorizon  int64 `json:"slots_simulated_horizon,omitempty"`
}

// Extras carries the telemetry-derived additions to a timing row.
type Extras struct {
	ShardRetries          int64
	FleetReconnects       int64
	StragglerRedispatches int64
	ShardP50Ms            float64
	ShardP99Ms            float64
	// RunsPlanned, when positive, records the exact-grid size an
	// adaptive campaign stands for; the row's RunsSaved becomes
	// RunsPlanned - runs.
	RunsPlanned int
	// Per-op allocation stats for solver benchmark rows.
	AllocsPerOp     float64
	AllocBytesPerOp float64
	// Slot and stop accounting of permeability runs.
	SlotsSimulated, SlotsFastForwarded, SlotsDecided, SlotsConverged int64
	RunsDecided, RunsConverged, RunsHorizon, SlotsHorizon            int64
}

// TelemetryMark brackets a stretch of work so its timing row reports
// only that stretch's telemetry movement, even when several campaigns
// share one process-wide telemetry.
type TelemetryMark struct {
	tel                                      *obs.Telemetry
	shardRetries                             int64
	reconnects, stragglers                   int64
	simulated, forwarded, decided, converged int64
	runsDecided, runsConverged, runsHorizon  int64
	horizonSlots                             int64
	shard                                    []int64
}

// MarkTelemetry records tel's counters now. A nil tel gives a mark
// that adds nothing.
func MarkTelemetry(tel *obs.Telemetry) TelemetryMark {
	m := TelemetryMark{tel: tel}
	if tel != nil {
		m.shardRetries = tel.DispatchRetries.Value()
		m.reconnects = tel.FleetReconnects.Value()
		m.stragglers = tel.FleetStragglers.Value()
		m.simulated = tel.SlotsSimulated.Value()
		m.forwarded = tel.SlotsFastForwarded.Value()
		m.decided = tel.SlotsDecided.Value()
		m.converged = tel.SlotsConverged.Value()
		m.runsDecided = tel.RunsDecided.Value()
		m.runsConverged = tel.RunsConverged.Value()
		m.runsHorizon = tel.RunsHorizon.Value()
		m.horizonSlots = tel.SlotsHorizon.Value()
		m.shard = tel.ShardDur.Counts()
	}
	return m
}

// Fill sets ext's telemetry-derived fields to the movement since the
// mark.
func (m TelemetryMark) Fill(ext *Extras) {
	tel := m.tel
	if tel == nil {
		return
	}
	ext.ShardRetries = tel.DispatchRetries.Value() - m.shardRetries
	ext.FleetReconnects = tel.FleetReconnects.Value() - m.reconnects
	ext.StragglerRedispatches = tel.FleetStragglers.Value() - m.stragglers
	ext.SlotsSimulated = tel.SlotsSimulated.Value() - m.simulated
	ext.SlotsFastForwarded = tel.SlotsFastForwarded.Value() - m.forwarded
	ext.SlotsDecided = tel.SlotsDecided.Value() - m.decided
	ext.SlotsConverged = tel.SlotsConverged.Value() - m.converged
	ext.RunsDecided = tel.RunsDecided.Value() - m.runsDecided
	ext.RunsConverged = tel.RunsConverged.Value() - m.runsConverged
	ext.RunsHorizon = tel.RunsHorizon.Value() - m.runsHorizon
	ext.SlotsHorizon = tel.SlotsHorizon.Value() - m.horizonSlots
	counts := tel.ShardDur.Counts()
	for i := range counts {
		if i < len(m.shard) {
			counts[i] -= m.shard[i]
		}
	}
	ext.ShardP50Ms = 1000 * obs.QuantileFromCounts(obs.DurationBuckets, counts, 0.50)
	ext.ShardP99Ms = 1000 * obs.QuantileFromCounts(obs.DurationBuckets, counts, 0.99)
}

// NewTiming builds one timing row from a campaign's run count and
// wall-clock duration.
func NewTiming(campaign string, runs int, wall time.Duration) Timing {
	t := Timing{
		Campaign:     campaign,
		Runs:         runs,
		WallS:        wall.Seconds(),
		RunsPlanned:  runs,
		RunsExecuted: runs,
	}
	if t.WallS > 0 {
		t.RunsPerSec = float64(runs) / t.WallS
	}
	return t
}

// Collector accumulates per-campaign timing rows. The engine observes
// into it from Execute, so commands that run several campaigns collect
// all rows through one hook instead of stopwatching each call site.
// Safe for concurrent observers.
type Collector struct {
	mu   sync.Mutex
	rows []Timing
}

// NewCollector returns an empty collector. The zero value is also
// ready to use.
func NewCollector() *Collector { return &Collector{} }

// Observe appends one campaign's timing row.
func (c *Collector) Observe(campaign string, runs int, wall time.Duration) {
	c.ObserveExt(campaign, runs, wall, Extras{})
}

// ObserveExt appends one campaign's timing row with telemetry extras.
func (c *Collector) ObserveExt(campaign string, runs int, wall time.Duration, ext Extras) {
	row := NewTiming(campaign, runs, wall)
	row.ShardRetries = ext.ShardRetries
	row.FleetReconnects = ext.FleetReconnects
	row.StragglerRedispatches = ext.StragglerRedispatches
	row.ShardP50Ms = ext.ShardP50Ms
	row.ShardP99Ms = ext.ShardP99Ms
	row.AllocsPerOp = ext.AllocsPerOp
	row.AllocBytesPerOp = ext.AllocBytesPerOp
	row.SlotsSimulated = ext.SlotsSimulated
	row.SlotsFastForwarded = ext.SlotsFastForwarded
	row.SlotsDecided = ext.SlotsDecided
	row.SlotsConverged = ext.SlotsConverged
	row.RunsDecided = ext.RunsDecided
	row.RunsConverged = ext.RunsConverged
	row.RunsHorizon = ext.RunsHorizon
	row.SlotsHorizon = ext.SlotsHorizon
	if ext.RunsPlanned > 0 {
		row.RunsPlanned = ext.RunsPlanned
		row.RunsSaved = ext.RunsPlanned - runs
	}
	c.mu.Lock()
	c.rows = append(c.rows, row)
	c.mu.Unlock()
}

// Rows returns the collected timing rows in observation order.
func (c *Collector) Rows() []Timing {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Timing(nil), c.rows...)
}

// CacheStats reports reference-run cache traffic alongside the timing
// rows (the experiment layer's golden cache). HitRate is hits over
// total lookups, 0 when the cache was never consulted.
type CacheStats struct {
	Size    int     `json:"size"`
	Hits    int64   `json:"hits"`
	Misses  int64   `json:"misses"`
	HitRate float64 `json:"hit_rate"`
}

// benchReport is the BENCH_campaigns.json document.
type benchReport struct {
	Seed        int64      `json:"seed"`
	Workers     int        `json:"workers"`
	Campaigns   []Timing   `json:"campaigns"`
	GoldenCache CacheStats `json:"golden_cache"`
}

// WriteBench writes the timing rows (plus cache statistics) as JSON to
// path. An empty path or an empty row set disables the report.
func WriteBench(path string, seed int64, workers int, rows []Timing, cache CacheStats) error {
	if path == "" || len(rows) == 0 {
		return nil
	}
	if total := cache.Hits + cache.Misses; total > 0 && cache.HitRate == 0 {
		cache.HitRate = float64(cache.Hits) / float64(total)
	}
	rep := benchReport{Seed: seed, Workers: workers, Campaigns: rows, GoldenCache: cache}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("campaign: writing bench report: %w", err)
	}
	return nil
}
