package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed interval of one job (or one Table II cell) at one layer
// boundary. Spans are recorded by the benchmark around its calls into each
// layer and from the serve hooks; they stay in memory until the run ends.
type span struct {
	Name       string
	Job        int
	Start, End time.Time
}

// parentOf fixes the span tree: every span of a job nests inside its parent
// span of the same job, and the root spans have no entry.
var parentOf = map[string]string{
	"serve.queue":     "job",
	"serve.exec":      "job",
	"ckks.decrypt":    "job",
	"fhir.lower":      "serve.exec",
	"cluster.preload": "serve.exec",
	"cluster.run":     "serve.exec",
	"cluster.collect": "serve.exec",
	"mapping.build":   "table2.cell",
	"sim.run":         "table2.cell",
}

// selfTimes returns, per span name, the summed span durations minus the time
// their child spans cover (children of one parent never overlap).
func selfTimes(spans []span) map[string]time.Duration {
	type key struct {
		name string
		job  int
	}
	total := map[key]time.Duration{}
	for _, s := range spans {
		total[key{s.Name, s.Job}] += s.End.Sub(s.Start)
	}
	self := map[string]time.Duration{}
	for k, d := range total {
		self[k.name] += d
		if p, ok := parentOf[k.name]; ok {
			self[p] -= d
		}
	}
	return self
}

// checkNesting reports the first span lying outside its parent span.
func checkNesting(spans []span) error {
	type key struct {
		name string
		job  int
	}
	parents := map[key]span{}
	for _, s := range spans {
		parents[key{s.Name, s.Job}] = s
	}
	for _, s := range spans {
		pn, ok := parentOf[s.Name]
		if !ok {
			continue
		}
		p, ok := parents[key{pn, s.Job}]
		if !ok {
			return fmt.Errorf("job %d: span %s has no %s span", s.Job, s.Name, pn)
		}
		if s.Start.Before(p.Start) || s.End.After(p.End) || s.End.Before(s.Start) {
			return fmt.Errorf("job %d: span %s [%v, %v] lies outside %s [%v, %v]",
				s.Job, s.Name, s.Start, s.End, pn, p.Start, p.End)
		}
	}
	return nil
}

// printSelfTimes writes the per-layer self-time table of a traced phase.
func printSelfTimes(w io.Writer, spans []span, jobs int) {
	self := selfTimes(spans)
	names := make([]string, 0, len(self))
	var sum time.Duration
	for n, d := range self {
		names = append(names, n)
		sum += d
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "self time by layer over %d traced jobs:\n", jobs)
	fmt.Fprintf(w, "  %-18s %12s %14s %7s\n", "span", "total_ms", "per_job_ms", "share")
	for _, n := range names {
		d := self[n]
		fmt.Fprintf(w, "  %-18s %12.2f %14.3f %6.1f%%\n", n, ms(d), ms(d)/float64(max(jobs, 1)), 100*float64(d)/float64(max(sum, 1)))
	}
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds since the first span
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes spans as Chrome trace-event JSON (loadable in
// Perfetto or chrome://tracing). Each job gets its own track, so its spans
// stack under the job span.
func writeChromeTrace(path string, spans []span, meta provenance) error {
	if len(spans) == 0 {
		return fmt.Errorf("no spans to write")
	}
	t0 := spans[0].Start
	for _, s := range spans {
		if s.Start.Before(t0) {
			t0 = s.Start
		}
	}
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		cat := s.Name
		if i := strings.IndexByte(s.Name, '.'); i >= 0 {
			cat = s.Name[:i]
		}
		args := map[string]any{"job": s.Job}
		if p, ok := parentOf[s.Name]; ok {
			args["parent"] = p
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: cat, Ph: "X",
			Ts: us(s.Start.Sub(t0)), Dur: us(s.End.Sub(s.Start)),
			Pid: 1, Tid: s.Job, Args: args,
		})
	}
	// Parents before children at equal start times, so viewers nest them.
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].Ts != events[j].Ts {
			return events[i].Ts < events[j].Ts
		}
		return events[i].Dur > events[j].Dur
	})
	data, err := json.Marshal(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
		OtherData       provenance    `json:"otherData"`
	}{events, "ms", meta})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
