package obs

import (
	"encoding/json"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Live is the in-memory operations view behind /events (SSE) and /dash.
// It mirrors the Progress call sites — campaign start/end, run done,
// shard planned/done, retry — plus per-shard phase attribution and
// fleet worker membership, and publishes JSON snapshots to subscribers.
//
// The hot path (RunDone) is a single atomic add on the LiveCampaign
// returned by StartCampaign; per-run updates never publish — runs ride
// the periodic snapshots the SSE handler emits. Shard and worker
// transitions are rare, so they publish immediately.
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

// LiveCampaign tracks one running campaign with lock-free counters so
// the engine's per-run callback stays cheap. Nil-safe.
type LiveCampaign struct {
	name        string
	executor    string
	trace       string
	startedAt   time.Time
	runsTotal   int64
	runsDone    atomic.Int64
	retries     atomic.Int64
	shardsTotal atomic.Int64
	shardsDone  atomic.Int64
}

// RunDone counts one completed run. Never publishes.
func (c *LiveCampaign) RunDone() {
	if c != nil {
		c.runsDone.Add(1)
	}
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

// StartCampaign begins tracking a campaign and returns its counter
// block for the hot path. Shard detail from any previous campaign is
// cleared so the dashboard shows the current one.
func (l *Live) StartCampaign(name, executor, trace string, runsTotal int) *LiveCampaign {
	if l == nil {
		return nil
	}
	c := &LiveCampaign{
		name: name, executor: executor, trace: trace,
		startedAt: time.Now(), runsTotal: int64(runsTotal),
	}
	l.mu.Lock()
	l.current = c
	l.shards = make(map[string]ShardStatus)
	l.mu.Unlock()
	l.publish()
	return c
}

// EndCampaign moves the current campaign into the done list.
func (l *Live) EndCampaign(c *LiveCampaign) {
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

// SetShards records the planned shard count for the current campaign.
func (l *Live) SetShards(n int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	c := l.current
	l.mu.Unlock()
	if c != nil {
		c.shardsTotal.Store(int64(n))
	}
	l.publish()
}

// ShardDone counts one completed shard for the current campaign.
func (l *Live) ShardDone() {
	if l == nil {
		return
	}
	l.mu.Lock()
	c := l.current
	l.mu.Unlock()
	if c != nil {
		c.shardsDone.Add(1)
	}
	l.publish()
}

// Retry counts one shard re-dispatch for the current campaign.
func (l *Live) Retry() {
	if l == nil {
		return
	}
	l.mu.Lock()
	c := l.current
	l.mu.Unlock()
	if c != nil {
		c.retries.Add(1)
	}
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
