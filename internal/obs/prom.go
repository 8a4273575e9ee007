package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// help holds the exposition help text per metric family. Families
// without an entry still render, with a generic help line.
var help = map[string]string{
	"repro_campaigns_total":                   "Campaigns executed end to end.",
	"repro_campaign_runs_total":               "Runs planned per campaign.",
	"repro_campaign_runs_done_total":          "Runs completed per campaign.",
	"repro_run_duration_seconds":              "Per-run wall time.",
	"repro_trace_worker_spans_total":          "Worker-recorded spans folded into the parent trace.",
	"repro_shards_total":                      "Shards partitioned for execution.",
	"repro_shards_done_total":                 "Shards completed.",
	"repro_shard_duration_seconds":            "Per-shard wall time.",
	"repro_dispatch_shards_total":             "Shards planned by the subprocess dispatcher.",
	"repro_dispatch_shards_resumed_total":     "Shards replayed from a checkpoint journal.",
	"repro_dispatch_shards_done_total":        "Shards completed by the subprocess dispatcher.",
	"repro_dispatch_shard_retries_total":      "Shard re-dispatches after retryable failures.",
	"repro_dispatch_integrity_failures_total": "Integrity-check failures on shard responses.",
	"repro_dispatch_permanent_failures_total": "Permanent (campaign-fatal) shard failures.",
	"repro_dispatch_worker_spawns_total":      "Worker processes spawned.",
	"repro_dispatch_worker_kills_total":       "Worker processes killed or destroyed.",
	"repro_dispatch_degraded":                 "1 while the dispatcher executes shards in-process.",
	"repro_worker_runs_total":                 "Runs executed inside worker processes.",
	"repro_golden_cache_hits_total":           "Golden-run cache hits.",
	"repro_golden_cache_misses_total":         "Golden-run cache misses.",
	"repro_golden_cache_size":                 "Golden runs currently cached.",
	"repro_rig_acquires_total":                "Rig acquisitions (reuse + build).",
	"repro_rig_reuses_total":                  "Rig acquisitions served by resetting a pooled rig.",
	"repro_rig_builds_total":                  "Rig acquisitions that built a fresh rig.",
	"repro_rig_releases_total":                "Rigs returned to the pool.",
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4): HELP/TYPE headers per family,
// histograms expanded into cumulative _bucket series plus _sum/_count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	r.mu.Unlock()
	sort.Strings(names)
	for _, name := range names {
		r.mu.Lock()
		f := r.families[name]
		renders := append([]string(nil), f.order...)
		series := make([]any, len(renders))
		for i, lr := range renders {
			series[i] = f.series[lr]
		}
		kind, bounds := f.kind, f.bounds
		r.mu.Unlock()

		h := help[name]
		if h == "" {
			h = "No help text registered."
		}
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, h, name, kind); err != nil {
			return err
		}
		for i, lr := range renders {
			var err error
			switch v := series[i].(type) {
			case *Counter:
				_, err = fmt.Fprintf(w, "%s%s %d\n", name, lr, v.Value())
			case *Gauge:
				_, err = fmt.Fprintf(w, "%s%s %d\n", name, lr, v.Value())
			case *Histogram:
				err = writePromHistogram(w, name, lr, bounds, v)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// writePromHistogram renders one histogram series: cumulative buckets
// with the le label spliced into any existing label render, then sum
// and count.
func writePromHistogram(w io.Writer, name, labels string, bounds []float64, h *Histogram) error {
	counts := h.Counts()
	var cum int64
	for i, b := range bounds {
		cum += counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, spliceLabel(labels, "le", formatBound(b)), cum); err != nil {
			return err
		}
	}
	cum += counts[len(bounds)]
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, spliceLabel(labels, "le", "+Inf"), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", name, labels, h.sum.load()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.count.Load())
	return err
}

// spliceLabel appends key="value" to a rendered label set.
func spliceLabel(labels, key, value string) string {
	extra := fmt.Sprintf("%s=%q", key, value)
	if labels == "" {
		return "{" + extra + "}"
	}
	return strings.TrimSuffix(labels, "}") + "," + extra + "}"
}

// formatBound renders a bucket bound the way Prometheus expects
// (shortest decimal form).
func formatBound(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}
