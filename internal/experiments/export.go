package experiments

import (
	"encoding/json"
	"io"
	"sort"

	"parrot/internal/config"
	"parrot/internal/core"
)

// RunSummary is the machine-readable record of one (model, application)
// simulation, suitable for external plotting of the figures.
type RunSummary struct {
	Model string `json:"model"`
	App   string `json:"app"`
	Suite string `json:"suite"`

	Insts  uint64  `json:"insts"`
	Cycles uint64  `json:"cycles"`
	IPC    float64 `json:"ipc"`

	DynEnergy   float64 `json:"dynEnergy"`
	TotalEnergy float64 `json:"totalEnergy"` // includes leakage at the run's P_MAX
	CMPW        float64 `json:"cmpw"`

	Coverage     float64 `json:"coverage"`
	BranchMispct float64 `json:"branchMispredictRate"`
	TraceMispct  float64 `json:"traceMispredictRate"`
	TraceAborts  uint64  `json:"traceAborts"`
	TraceBuilds  uint64  `json:"traceBuilds"`

	Optimizations uint64  `json:"optimizations"`
	UopReduction  float64 `json:"uopReduction"`
	CritReduction float64 `json:"critReduction"`
	OptReuse      float64 `json:"optReuse"`

	// Attempts, when set by a remote caller (parrotsim -remote), reports
	// how many transport attempts the retrying client needed to obtain the
	// cell (1 = first try; 0 = local run, omitted).
	Attempts int `json:"attempts,omitempty"`
}

// Summarize converts one run result into its machine-readable record,
// pricing leakage at the given P_MAX. It is the single-run building block
// shared by the matrix export and the CLI -json outputs.
func Summarize(res *core.Result, pmax float64) RunSummary {
	return RunSummary{
		Model:         string(res.Model),
		App:           res.App,
		Suite:         res.Suite.String(),
		Insts:         res.Insts,
		Cycles:        res.Cycles,
		IPC:           res.IPC(),
		DynEnergy:     res.DynEnergy,
		TotalEnergy:   res.TotalEnergy(pmax),
		CMPW:          res.CMPW(pmax),
		Coverage:      res.Coverage(),
		BranchMispct:  res.BranchStats.MispredictRate(),
		TraceMispct:   res.TPredStats.MispredictRate(),
		TraceAborts:   res.TraceAborts,
		TraceBuilds:   res.TraceBuilds,
		Optimizations: res.Optimizations,
		UopReduction:  res.UopReduction(),
		CritReduction: res.CritReduction(),
		OptReuse:      res.OptimizedTraceUtilization(),
	}
}

// Summaries flattens the result matrix into per-run records, sorted by
// model then application for stable output.
func (r *Results) Summaries() []RunSummary {
	var out []RunSummary
	for _, id := range r.Models() {
		for _, p := range r.apps {
			res := r.Get(id, p.Name)
			if res == nil {
				continue
			}
			out = append(out, Summarize(res, r.PMax))
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Model != out[j].Model {
			return modelRank(out[i].Model) < modelRank(out[j].Model)
		}
		return out[i].App < out[j].App
	})
	return out
}

func modelRank(id string) int {
	for i, m := range config.All() {
		if string(m.ID) == id {
			return i
		}
	}
	return len(config.All())
}

// Export is the top-level JSON document.
type Export struct {
	PMax      float64      `json:"pMax"`
	PMaxApp   string       `json:"pMaxApp"`
	InstsPer  int          `json:"instsPerApp"`
	Summaries []RunSummary `json:"runs"`
}

// WriteJSON emits the full matrix as indented JSON.
func (r *Results) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Export{
		PMax:      r.PMax,
		PMaxApp:   r.PMaxApp,
		InstsPer:  r.cfg.Insts,
		Summaries: r.Summaries(),
	})
}
