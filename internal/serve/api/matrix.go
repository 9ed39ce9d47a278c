package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"parrot/internal/cluster"
	"parrot/internal/config"
	"parrot/internal/core"
	"parrot/internal/experiments"
	"parrot/internal/serve/proto"
	"parrot/internal/telemetry"
	tlog "parrot/internal/telemetry/log"
	"parrot/internal/workload"
)

// handleMatrix fans a model × application matrix out onto the scheduler's
// batch queue and streams progress as Server-Sent Events: one "progress"
// event per completed cell (done strictly increasing 1..total, mirroring
// the experiments.Config.Progress contract), then a single terminal
// "result" event carrying every cell plus the matrix digest computed with
// the same canonical hashing as an in-process experiments.Run — or a
// terminal "error" event.
//
// Cells are submitted in model-major order (so sched's model-affinity
// batching finds cells for the machine a worker holds) and deduplicated
// per digest, so concurrent matrix requests over the same spec share
// simulations instead of multiplying them.
func (s *Server) handleMatrix(w http.ResponseWriter, r *http.Request) {
	var req proto.MatrixRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}

	models, apps, err := resolveMatrix(req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}

	flusher, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, "streaming unsupported by connection")
		return
	}
	timeout := s.cfg.MaxMatrixTimeout
	if req.TimeoutMs > 0 {
		t := proto.Duration(int64(req.TimeoutMs), time.Millisecond)
		if t < timeout {
			timeout = t
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	emit := func(event string, payload any) {
		b, _ := json.Marshal(payload)
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b)
		flusher.Flush()
	}

	total := len(models) * len(apps)
	start := time.Now()
	done := make(chan cellOutcome, total)

	// Fan out: one waiter goroutine per cell (they mostly block on shared
	// flights or remote calls; local concurrency is the scheduler's worker
	// cap). Model-major order keeps consecutive batch jobs on the same
	// model. With a cluster configured, each cell is routed to its ring
	// owner — the gather loop below survives owner death because
	// runMatrixCell retries elsewhere and finally rescues locally.
	for mi, m := range models {
		for ai, p := range apps {
			idx := mi*len(apps) + ai
			spec := experiments.RunSpec{Model: m, App: p, Insts: req.Insts}.Normalize()
			model, app := string(m.ID), p.Name
			go func() {
				o := s.runMatrixCell(ctx, spec, model, app, req.Insts)
				o.idx = idx
				done <- o
			}()
		}
	}

	// Gather. A failed cell becomes an explicit per-cell failure entry —
	// the matrix completes partial instead of aborting the whole fan-out —
	// except when the matrix-level ctx itself is dead (timeout or client
	// gone), where one terminal error beats a flood of identical per-cell
	// failures.
	cells := make([]cellOutcome, total)
	cachedCells, failed := 0, 0
	for n := 1; n <= total; n++ {
		d := <-done
		if d.err != nil {
			if ctx.Err() != nil {
				emit("error", proto.Error{Error: ctx.Err().Error()})
				return
			}
			failed++
		} else if d.cached {
			cachedCells++
		}
		cells[d.idx] = d
		elapsed := time.Since(start)
		eta := time.Duration(int64(elapsed) / int64(n) * int64(total-n))
		emit("progress", proto.Progress{
			Done: n, Total: total,
			ElapsedUs: elapsed.Microseconds(), EtaUs: eta.Microseconds(),
			Cached: d.cached, Disposition: d.disp,
			Failed: failed,
		})
	}

	out := proto.MatrixResponse{
		Insts:       req.Insts,
		CachedCells: cachedCells,
		TotalCells:  total,
		FailedCells: failed,
		ElapsedUs:   time.Since(start).Microseconds(),
		RequestID:   telemetry.TraceFrom(ctx).ID(),
		Cells:       make([]proto.Cell, 0, total),
	}
	if failed == 0 {
		// Reassemble the matrix with the shared constructor so PMax and the
		// digest are derived exactly as experiments.Run derives them. A
		// partial matrix carries no digest: the canonical hash covers every
		// cell, and a partial hash would collide with nothing meaningful.
		res := experiments.Assemble(models, apps, req.Insts,
			func(m config.Model, p workload.Profile) *core.Result {
				for mi, mm := range models {
					if mm.ID != m.ID {
						continue
					}
					for ai, pp := range apps {
						if pp.Name == p.Name {
							return cells[mi*len(apps)+ai].res
						}
					}
				}
				return nil
			})
		out.Digest = res.Digest()
		out.PMax = res.PMax
		out.PMaxApp = res.PMaxApp
	}
	for mi, m := range models {
		for ai, p := range apps {
			d := cells[mi*len(apps)+ai]
			cell := proto.Cell{
				Model:       string(m.ID),
				App:         p.Name,
				Digest:      experiments.RunSpec{Model: m, App: p, Insts: req.Insts}.Digest(),
				Cached:      d.cached,
				Disposition: d.disp,
				Result:      d.res,
				Node:        d.node,
			}
			if d.err != nil {
				cell.Error = d.err.Error()
			}
			out.Cells = append(out.Cells, cell)
		}
	}
	emit("result", out)
}

// cellOutcome is one gathered matrix cell.
type cellOutcome struct {
	idx    int
	disp   string
	cached bool
	res    *core.Result
	node   string
	err    error
}

// runMatrixCell executes one cell, routing through the cluster when one is
// configured. The fault-tolerance ladder: (1) the ring owner (with the
// routing client's retries and failover to successors), then
// (2) local rescue on this coordinator — so a cell only fails when the
// local scheduler itself cannot run it (drain or matrix timeout).
func (s *Server) runMatrixCell(ctx context.Context, spec experiments.RunSpec, model, app string, insts int) cellOutcome {
	cl := s.cfg.Cluster
	digest := spec.Digest()
	rescue := false
	if cl != nil {
		if _, self := cl.Owner(digest); !self {
			tr := telemetry.TraceFrom(ctx)
			sp := tr.StartSpanTID(telemetry.TIDCluster, "cluster.cell",
				telemetry.A("cell", model+"/"+app))
			resp, info, err := cl.Execute(ctx, proto.RunRequest{
				Model: model, App: app, Insts: insts,
				Priority: proto.PriorityBatch,
			}, digest)
			if err == nil {
				node := resp.Node
				if node == "" {
					node = info.Node
				}
				sp.SetAttr("node", node)
				sp.End()
				return cellOutcome{disp: resp.Disposition, cached: resp.Cached, res: resp.Result, node: node}
			}
			sp.SetAttr("err", err.Error())
			sp.End()
			if !errors.Is(err, cluster.ErrRouteLocal) {
				// Every remote route failed: last line of defence is running
				// the cell on this coordinator. The matrix stays complete as
				// long as this node lives.
				rescue = true
				tlog.From(ctx).Warn("cell rescue: running locally",
					tlog.F("cell", model+"/"+app), tlog.F("err", err.Error()))
			}
		} else {
			cl.NoteLocal()
		}
	}

	cellStart := time.Now()
	res, disp, err := s.cfg.Sched.SubmitBatch(ctx, spec)
	if err != nil {
		return cellOutcome{err: err}
	}
	if rescue {
		cl.NoteRescued()
	}
	s.cellReqs(disp.String()).Inc()
	s.cellSecs(disp.String()).Observe(time.Since(cellStart).Seconds())
	return cellOutcome{disp: disp.String(), cached: disp.Cached(), res: res, node: s.cfg.NodeID}
}

// resolveMatrix expands a matrix request into concrete model and profile
// sets (empty = full sets).
func resolveMatrix(req proto.MatrixRequest) ([]config.Model, []workload.Profile, error) {
	var models []config.Model
	if len(req.Models) == 0 {
		models = config.All()
	} else {
		for _, id := range req.Models {
			found := false
			for _, m := range config.All() {
				if string(m.ID) == id {
					models = append(models, m)
					found = true
					break
				}
			}
			if !found {
				return nil, nil, fmt.Errorf("unknown model %q", id)
			}
		}
	}
	var apps []workload.Profile
	if len(req.Apps) == 0 {
		apps = workload.Apps()
	} else {
		for _, name := range req.Apps {
			p, ok := workload.ByName(name)
			if !ok {
				return nil, nil, fmt.Errorf("unknown application %q", name)
			}
			apps = append(apps, p)
		}
	}
	return models, apps, nil
}
