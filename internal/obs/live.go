package obs

import (
	"encoding/json"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Live is the one record of campaign progress: the running campaign's
// runs, shards and retries (a LiveCampaign), per-shard status with its
// phase attribution, fleet worker membership and recently finished
// campaigns. /events (SSE) and /dash publish it as JSON snapshots, and
// the progress line renders the same LiveCampaign, so every count they
// show has one source.
//
// Campaign counts change only through Telemetry's entry points
// (StartCampaign, RunDone, PlanShards, FinishShard, RetryShard,
// EndCampaign). The hot path (RunDone) is atomic adds on the
// LiveCampaign; per-run updates never publish — runs ride the periodic
// snapshots the SSE handler emits. Shard and worker transitions are
// rare, so they publish immediately.
//
// All methods are nil-safe no-ops, matching the rest of the package.
type Live struct {
	mu      sync.Mutex
	current *LiveCampaign
	shards  map[string]ShardStatus
	workers map[string]LiveWorker
	subs    map[chan []byte]struct{}
	done    []CampaignSummary
}

// NewLive returns an empty live view.
func NewLive() *Live {
	return &Live{
		shards:  make(map[string]ShardStatus),
		workers: make(map[string]LiveWorker),
		subs:    make(map[chan []byte]struct{}),
	}
}

// LiveCampaign is one campaign's record, kept in lock-free counters so
// the engine's per-run path stays cheap. Nil-safe.
type LiveCampaign struct {
	name        string
	executor    string
	trace       string
	startedAt   time.Time
	runsTotal   int64
	doneSeries  *Counter // the campaign's repro_campaign_runs_done_total series
	runsDone    atomic.Int64
	retries     atomic.Int64
	shardsTotal atomic.Int64
	shardsDone  atomic.Int64
}

// The engine reports a campaign's progress through the entry points
// below, one per event. Each updates the registry series, the
// campaign's record in Live and the progress line together. All are
// nil-safe.

// StartCampaign begins the record of a campaign of runs planned runs
// on the named executor; trace is its trace id. Shard detail from any
// previous campaign is cleared so the dashboard shows this one.
func (t *Telemetry) StartCampaign(name, executor, trace string, runs int) *LiveCampaign {
	if t == nil {
		return nil
	}
	t.Campaigns.Inc()
	t.Reg.Counter("repro_campaign_runs_total", L("campaign", name)).Add(int64(runs))
	c := &LiveCampaign{
		name: name, executor: executor, trace: trace,
		startedAt: time.Now(), runsTotal: int64(runs),
		doneSeries: t.Reg.Counter("repro_campaign_runs_done_total", L("campaign", name)),
	}
	t.Live.start(c)
	t.Progress.show(c)
	return c
}

// EndCampaign moves c into Live's finished campaigns. The progress
// line keeps showing c until the next campaign starts.
func (t *Telemetry) EndCampaign(c *LiveCampaign) {
	if t != nil {
		t.Live.end(c)
	}
}

// RunDone counts one completed run of c. It is the per-run hot path:
// atomic adds and the progress line's rate-limit check; it never
// publishes and never allocates.
func (t *Telemetry) RunDone(c *LiveCampaign) {
	if t == nil || c == nil {
		return
	}
	c.runsDone.Add(1)
	c.doneSeries.Inc()
	t.Progress.update(false)
}

// PlanShards records the n shards the running campaign is partitioned
// into. dispatched marks the subprocess and fleet dispatcher's shards,
// which it also counts in its own series.
func (t *Telemetry) PlanShards(n int, dispatched bool) {
	if t == nil {
		return
	}
	t.ShardsPlanned.Add(int64(n))
	if dispatched {
		t.DispatchShards.Add(int64(n))
	}
	if c := t.Live.running(); c != nil {
		c.shardsTotal.Store(int64(n))
	}
	t.Live.publish()
	t.Progress.update(false)
}

// FinishShard records one completed shard of the running campaign with
// its final status s. wall is the shard's time in this process, every
// attempt included; a shard replayed from a checkpoint journal ran in
// an earlier process, passes 0 and stays out of the duration histogram.
// dispatched is as for PlanShards.
func (t *Telemetry) FinishShard(s ShardStatus, wall time.Duration, dispatched bool) {
	if t == nil {
		return
	}
	if wall > 0 {
		t.ShardDur.Observe(wall.Seconds())
	}
	t.ShardsDone.Inc()
	if dispatched {
		t.DispatchDone.Inc()
	}
	if c := t.Live.running(); c != nil {
		c.shardsDone.Add(1)
	}
	t.Live.UpdateShard(s)
	t.Progress.update(false)
}

// RetryShard records one re-dispatch of a shard of the running
// campaign; s is the shard's status while it waits.
func (t *Telemetry) RetryShard(s ShardStatus) {
	if t == nil {
		return
	}
	t.DispatchRetries.Inc()
	if c := t.Live.running(); c != nil {
		c.retries.Add(1)
	}
	t.Live.UpdateShard(s)
	t.Progress.update(false)
}

// ShardStatus is the live state of one shard, including the phase
// split attributed from the merged trace (queue wait before a worker
// slot, worker-side execution, and network/framing overhead).
type ShardStatus struct {
	Campaign string `json:"campaign"`
	ID       string `json:"id"`
	Worker   string `json:"worker,omitempty"`
	State    string `json:"state"` // "running", "done", "retrying", "failed"
	Runs     int    `json:"runs"`
	Attempts int    `json:"attempts,omitempty"`
	WallMs   int64  `json:"wall_ms,omitempty"`
	QueueMs  int64  `json:"queue_ms,omitempty"`
	ExecMs   int64  `json:"exec_ms,omitempty"`
	NetMs    int64  `json:"net_ms,omitempty"`
}

// LiveWorker is one fleet agent's membership state.
type LiveWorker struct {
	ID       string `json:"id"`
	PID      int    `json:"pid,omitempty"`
	State    string `json:"state"` // "up", "lost"
	JoinedMs int64  `json:"joined_ms"`
}

// CampaignSummary is a finished campaign's final counters.
type CampaignSummary struct {
	Campaign string `json:"campaign"`
	Executor string `json:"executor"`
	Trace    string `json:"trace,omitempty"`
	Runs     int64  `json:"runs"`
	Retries  int64  `json:"retries,omitempty"`
	WallMs   int64  `json:"wall_ms"`
}

// Snapshot is the full live state serialized to SSE subscribers.
type Snapshot struct {
	Campaign *CampaignProgress `json:"campaign,omitempty"`
	Shards   []ShardStatus     `json:"shards,omitempty"`
	Workers  []LiveWorker      `json:"workers,omitempty"`
	Done     []CampaignSummary `json:"done,omitempty"`
}

// CampaignProgress is the running campaign's counters at snapshot time.
type CampaignProgress struct {
	Campaign    string `json:"campaign"`
	Executor    string `json:"executor"`
	Trace       string `json:"trace,omitempty"`
	RunsTotal   int64  `json:"runs_total"`
	RunsDone    int64  `json:"runs_done"`
	Retries     int64  `json:"retries,omitempty"`
	ShardsTotal int64  `json:"shards_total,omitempty"`
	ShardsDone  int64  `json:"shards_done,omitempty"`
	ElapsedMs   int64  `json:"elapsed_ms"`
}

// start makes c the running campaign, clearing the previous
// campaign's shard detail.
func (l *Live) start(c *LiveCampaign) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.current = c
	l.shards = make(map[string]ShardStatus)
	l.mu.Unlock()
	l.publish()
}

// end moves c into the done list.
func (l *Live) end(c *LiveCampaign) {
	if l == nil || c == nil {
		return
	}
	sum := CampaignSummary{
		Campaign: c.name, Executor: c.executor, Trace: c.trace,
		Runs:    c.runsDone.Load(),
		Retries: c.retries.Load(),
		WallMs:  time.Since(c.startedAt).Milliseconds(),
	}
	l.mu.Lock()
	if l.current == c {
		l.current = nil
	}
	l.done = append(l.done, sum)
	if len(l.done) > 32 {
		l.done = l.done[len(l.done)-32:]
	}
	l.mu.Unlock()
	l.publish()
}

// running returns the running campaign, or nil.
func (l *Live) running() *LiveCampaign {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.current
}

// UpdateShard upserts one shard's live status and publishes. Call
// sites that don't know the campaign name (executors see only plan
// indices) may leave Campaign empty; it fills from the current
// campaign.
func (l *Live) UpdateShard(s ShardStatus) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if s.Campaign == "" && l.current != nil {
		s.Campaign = l.current.name
	}
	l.shards[s.ID] = s
	l.mu.Unlock()
	l.publish()
}

// WorkerJoin records a fleet agent joining (or a subprocess worker
// spawning).
func (l *Live) WorkerJoin(id string, pid int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.workers[id] = LiveWorker{
		ID: id, PID: pid, State: "up",
		JoinedMs: time.Now().UnixMilli(),
	}
	l.mu.Unlock()
	l.publish()
}

// WorkerLost marks a fleet agent as lost.
func (l *Live) WorkerLost(id string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if w, ok := l.workers[id]; ok {
		w.State = "lost"
		l.workers[id] = w
	}
	l.mu.Unlock()
	l.publish()
}

// SlowestShard reports the completed shard with the largest wall time,
// for the end-of-command straggler attribution line.
func (l *Live) SlowestShard() (ShardStatus, bool) {
	if l == nil {
		return ShardStatus{}, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var best ShardStatus
	found := false
	for _, s := range l.shards {
		if s.WallMs > best.WallMs || !found {
			if s.WallMs > 0 {
				best, found = s, true
			}
		}
	}
	return best, found
}

// Snapshot captures the full live state.
func (l *Live) Snapshot() Snapshot {
	if l == nil {
		return Snapshot{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var snap Snapshot
	if c := l.current; c != nil {
		snap.Campaign = &CampaignProgress{
			Campaign: c.name, Executor: c.executor, Trace: c.trace,
			RunsTotal:   c.runsTotal,
			RunsDone:    c.runsDone.Load(),
			Retries:     c.retries.Load(),
			ShardsTotal: c.shardsTotal.Load(),
			ShardsDone:  c.shardsDone.Load(),
			ElapsedMs:   time.Since(c.startedAt).Milliseconds(),
		}
	}
	for _, s := range l.shards {
		snap.Shards = append(snap.Shards, s)
	}
	sort.Slice(snap.Shards, func(i, j int) bool { return snap.Shards[i].ID < snap.Shards[j].ID })
	for _, w := range l.workers {
		snap.Workers = append(snap.Workers, w)
	}
	sort.Slice(snap.Workers, func(i, j int) bool { return snap.Workers[i].ID < snap.Workers[j].ID })
	snap.Done = append(snap.Done, l.done...)
	return snap
}

// SnapshotJSON is Snapshot marshaled, never failing (the types above
// cannot error under encoding/json).
func (l *Live) SnapshotJSON() []byte {
	b, err := json.Marshal(l.Snapshot())
	if err != nil {
		return []byte("{}")
	}
	return b
}

// Subscribe registers an SSE subscriber. The channel is buffered and
// publishes are non-blocking: a slow consumer drops intermediate
// snapshots, never stalls the engine.
func (l *Live) Subscribe() chan []byte {
	if l == nil {
		return nil
	}
	ch := make(chan []byte, 8)
	l.mu.Lock()
	l.subs[ch] = struct{}{}
	l.mu.Unlock()
	return ch
}

// Unsubscribe removes a subscriber registered with Subscribe.
func (l *Live) Unsubscribe(ch chan []byte) {
	if l == nil || ch == nil {
		return
	}
	l.mu.Lock()
	delete(l.subs, ch)
	l.mu.Unlock()
}

// publish pushes the current snapshot to every subscriber that has
// buffer room. Skipped entirely when nobody is listening.
func (l *Live) publish() {
	if l == nil {
		return
	}
	l.mu.Lock()
	n := len(l.subs)
	l.mu.Unlock()
	if n == 0 {
		return
	}
	b := l.SnapshotJSON()
	l.mu.Lock()
	for ch := range l.subs {
		select {
		case ch <- b:
		default:
		}
	}
	l.mu.Unlock()
}
