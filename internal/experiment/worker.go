package experiment

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/campaign"
	"repro/internal/campaign/dispatch"
	"repro/internal/erm"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sut"
)

// WorkerSpecEnv is the environment variable through which the parent
// process ships a JSON WorkerSpec to its shard workers.
const WorkerSpecEnv = "REPRO_WORKER_SPEC"

// WorkerSpec carries everything a worker process needs to rebuild the
// campaigns of one invocation bit-for-bit: the options plus every
// campaign's sizing parameters. The parent serializes it into the
// worker environment (WorkerSpecEnv); the worker rebuilds a campaign
// on demand when the first shard request naming it arrives, and the
// dispatch plan-hash handshake verifies both sides agree on the plan.
type WorkerSpec struct {
	// Options is the invocation's configuration. Scheduling-only fields
	// (Workers, Timings, Dispatch) are not serialized; the worker
	// executes single shards and must never re-dispatch.
	Options Options `json:"options"`

	PerInput       int              `json:"per_input,omitempty"`        // permeability
	PerSignal      int              `json:"per_signal,omitempty"`       // input-coverage
	Signals        []model.SignalID `json:"signals,omitempty"`          // input-coverage (nil = defaults)
	RAMLocations   int              `json:"ram_locations,omitempty"`    // internal-coverage, recovery
	StackLocations int              `json:"stack_locations,omitempty"`  // internal-coverage, recovery
	PerStep        int              `json:"per_step,omitempty"`         // tightness
	Steps          []model.Word     `json:"steps,omitempty"`            // tightness
	PerModel       int              `json:"per_model,omitempty"`        // model-sensitivity
	RecoveryRAM    int              `json:"recovery_ram,omitempty"`     // recovery
	RecoveryStack  int              `json:"recovery_stack,omitempty"`   // recovery
	Specs          []erm.Spec       `json:"specs,omitempty"`            // recovery (nil = defaults)
	IntegPerSignal int              `json:"integ_per_signal,omitempty"` // integration
	MatrixTargets  []string         `json:"matrix_targets,omitempty"`   // matrix (nil = all registered)
	MatrixModels   []string         `json:"matrix_models,omitempty"`    // matrix (nil = all error models)
	MatrixPerCell  int              `json:"matrix_per_cell,omitempty"`  // matrix

	// ModelJSON carries the raw system descriptions of JSON-loaded
	// targets (cmd/inject -model), so worker subprocesses re-register
	// them in their own sut registry before rebuilding the campaign.
	ModelJSON []json.RawMessage `json:"model_json,omitempty"`

	// Round carries the cursor state of the adaptive round this worker
	// pool serves (round campaigns are named "<base>@<round>"); nil for
	// exact campaigns. The parent refreshes it per round via
	// Options.withRound — worker pools are created per round, so fresh
	// processes always see their own round's state.
	Round *AdaptiveRound `json:"adaptive_round,omitempty"`
}

// Encode renders the spec for the worker environment.
func (s WorkerSpec) Encode() (string, error) {
	s.Options.Timings = nil
	s.Options.Dispatch = nil
	b, err := json.Marshal(s)
	if err != nil {
		return "", fmt.Errorf("experiment: encoding worker spec: %w", err)
	}
	return string(b), nil
}

// buildWorker rebuilds the named campaign from the spec and adapts it
// for shard serving. The builders are the same ones the parent's entry
// points use, so plans, shard keys and plan hashes agree by
// construction. A round name "<base>@<round>" rebuilds the base
// campaign and serves the round the spec's round state describes.
func (s WorkerSpec) buildWorker(ctx context.Context, name string) (dispatch.Worker, error) {
	opts := s.Options
	opts.Timings = nil
	opts.Dispatch = nil
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	var round *AdaptiveRound
	if base, r, ok := parseRoundName(name); ok {
		if s.Round == nil || s.Round.Campaign != base || s.Round.Round != r {
			return nil, fmt.Errorf("experiment: worker has no round state for campaign %q", name)
		}
		name, round = base, s.Round
	}
	switch name {
	case "permeability":
		c, err := newPermeabilityCampaign(ctx, opts, s.PerInput)
		if err != nil {
			return nil, err
		}
		return adapt[permJob, permOutcome, *PermeabilityResult](c, round)
	case "input-coverage":
		c, err := newInputCoverageCampaign(ctx, opts, s.PerSignal, s.Signals)
		if err != nil {
			return nil, err
		}
		return adapt[covJob, covOutcome, *InputCoverageResult](c, round)
	case "internal-coverage":
		c, err := newInternalCoverageCampaign(ctx, opts, s.RAMLocations, s.StackLocations)
		if err != nil {
			return nil, err
		}
		return adapt[memJob, memOutcome, *InternalCoverageResult](c, round)
	case "tightness":
		c, err := newTightnessCampaign(ctx, opts, s.PerStep, s.Steps)
		if err != nil {
			return nil, err
		}
		return dispatch.Adapt[tightJob, tightOutcome, []TightnessPoint](c)
	case "model-sensitivity":
		c, err := newSensitivityCampaign(ctx, opts, s.PerModel)
		if err != nil {
			return nil, err
		}
		return adapt[sensJob, sensOutcome, *ModelSensitivityResult](c, round)
	case "recovery":
		c, err := newRecoveryCampaign(ctx, opts, s.RecoveryRAM, s.RecoveryStack, s.Specs)
		if err != nil {
			return nil, err
		}
		return adapt[recJob, recOutcome, *RecoveryStudyResult](c, round)
	case "integration":
		c, err := newIntegrationCampaign(ctx, opts, s.IntegPerSignal)
		if err != nil {
			return nil, err
		}
		return adapt[integJob, integOutcome, *IntegrationPoint](c, round)
	case "matrix":
		c, err := newMatrixCampaign(ctx, opts, s.MatrixTargets, s.MatrixModels, s.MatrixPerCell)
		if err != nil {
			return nil, err
		}
		return adapt[matrixJob, matrixOutcome, *MatrixResult](c, round)
	}
	return nil, fmt.Errorf("experiment: no campaign named %q", name)
}

// adapt serves a rebuilt campaign's shards: the campaign itself, or,
// given round state, the adaptive round it names.
func adapt[Run, Result, Out any](c campaign.Campaign[Run, Result, Out], st *AdaptiveRound) (dispatch.Worker, error) {
	if st == nil {
		return dispatch.Adapt(c)
	}
	ac, ok := any(c).(adaptiveCampaign[Run, Result])
	if !ok {
		return nil, fmt.Errorf("experiment: no adaptive campaign named %q", c.Name())
	}
	streams, err := ac.roundStreams()
	if err != nil {
		return nil, err
	}
	rc, err := newRound(ac, streams, *st)
	if err != nil {
		return nil, err
	}
	return dispatch.Adapt[Run, Result, []Result](rc)
}

// LookupFromSpec builds the campaign lookup a worker serves shards
// from: decode the spec, register any JSON-loaded model targets, and
// return a lazy per-campaign builder. It is a dispatch.LookupFactory,
// so network worker agents rebuild their lookup per coordinator
// connection from the spec the handshake ships.
func LookupFromSpec(ctx context.Context, specJSON string) (func(name string) (dispatch.Worker, error), error) {
	if specJSON == "" {
		return nil, fmt.Errorf("experiment: worker mode requires a campaign spec")
	}
	var spec WorkerSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		return nil, fmt.Errorf("experiment: decoding worker spec: %w", err)
	}
	for _, data := range spec.ModelJSON {
		if _, err := sut.EnsureModelJSON(data); err != nil {
			return nil, fmt.Errorf("experiment: registering worker model target: %w", err)
		}
	}
	// Workers always run with a (registry-only) telemetry so rig-pool,
	// golden-cache and per-run counts exist to forward to the parent
	// over the shard protocol's metrics frames.
	obs.EnsureActive()
	return func(name string) (dispatch.Worker, error) {
		return spec.buildWorker(ctx, name)
	}, nil
}

// ServeWorker runs the hidden worker mode of the campaign commands:
// decode the spec the parent put in the environment and answer shard
// requests on stdin/stdout until the parent closes the pipe. Campaign
// state (plans, golden runs) is built lazily per campaign name and
// reused across the shards this process serves.
func ServeWorker(ctx context.Context, specJSON string, r io.Reader, w io.Writer) error {
	if specJSON == "" {
		return fmt.Errorf("experiment: worker mode requires a spec in $%s", WorkerSpecEnv)
	}
	lookup, err := LookupFromSpec(ctx, specJSON)
	if err != nil {
		return err
	}
	return dispatch.Serve(ctx, lookup, r, w)
}

// RunWorkerAgent runs the networked worker-agent mode of the campaign
// commands: serve shard requests on a listen address (-worker-listen),
// or register with a coordinator and serve over the dialed connection
// (-worker-connect). The campaign spec arrives per connection at
// handshake, so one agent serves many campaigns in sequence; the agent
// runs until ctx is canceled.
func RunWorkerAgent(ctx context.Context, listen, connect string, log io.Writer) error {
	obs.EnsureActive()
	o := dispatch.NetServeOptions{Log: log}
	if listen != "" {
		return dispatch.ServeNet(ctx, listen, LookupFromSpec, o)
	}
	return dispatch.DialAndServe(ctx, connect, LookupFromSpec, o)
}
