package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"strings"
)

// promPrefix namespaces every exposed metric, per Prometheus convention.
const promPrefix = "mdz_"

// promName maps a dotted registry name to a Prometheus-legal metric name:
// "compress.stage.huffman.ns" → "mdz_compress_stage_huffman_ns".
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(promPrefix) + len(name))
	b.WriteString(promPrefix)
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4): counters with a _total suffix, gauges verbatim,
// histograms with cumulative le-labelled buckets plus _sum and _count.
// Output order is deterministic. A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range sortedKeys(r.counters) {
		pn := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s_total counter\n%s_total %d\n", pn, pn, r.counters[name].Value()); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(r.gauges) {
		pn := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", pn, pn, r.gauges[name].Value()); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(r.hists) {
		h := r.hists[name]
		pn := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", pn); err != nil {
			return err
		}
		cum := int64(0)
		for i, b := range h.bounds {
			cum += h.buckets[i].Load()
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", pn, b, cum); err != nil {
				return err
			}
		}
		cum += h.buckets[len(h.bounds)].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
			pn, cum, pn, h.sum.Load(), pn, cum); err != nil {
			return err
		}
	}
	return nil
}

// Handler returns an http.Handler serving the given registries in the
// Prometheus text format; nil registries are skipped. Mount it on /metrics.
func Handler(regs ...*Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		for _, r := range regs {
			if err := r.WritePrometheus(w); err != nil {
				return
			}
		}
	})
}
