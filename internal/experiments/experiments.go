// Package experiments reproduces every table and figure of the paper's
// evaluation (§4): it runs the model × application matrix and derives the
// exact series each figure plots. EXPERIMENTS.md records paper-reported
// versus measured values.
package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"parrot/internal/config"
	"parrot/internal/core"
	"parrot/internal/workload"
)

// Config parameterizes an experiment run.
type Config struct {
	// Insts is the dynamic instruction count per application (0 = profile
	// default). The paper uses 30–100M-instruction traces; the synthetic
	// reproduction defaults to a scaled-down but distribution-stable count.
	Insts int

	// Apps restricts the benchmark roster (nil = all 44).
	Apps []workload.Profile

	// Models restricts the configuration set (nil = all seven).
	Models []config.Model

	// Parallelism bounds concurrent simulations (0 = GOMAXPROCS).
	Parallelism int

	// Progress, when non-nil, receives completion updates from the matrix
	// fan-out: cells done so far, the total cell count, wall time elapsed and
	// an ETA extrapolated from the mean per-cell time. Invocations are
	// serialized under an internal mutex and done is strictly increasing,
	// hitting every value 1..total exactly once — consumers that relay
	// progress (the CLI's \r status line, the serving layer's SSE stream)
	// can rely on monotonic ordering without their own locking
	// (TestProgressMonotonicUnderConcurrency pins this). Callbacks run on
	// the completing worker's goroutine and must stay cheap: the fan-out
	// serializes on them.
	Progress func(done, total int, elapsed, eta time.Duration)
}

// Results holds the complete model × application result matrix as a dense
// row-major slice (one row per model, one column per application). Cells are
// disjoint slots: during Run each is written by exactly one worker, so the
// fan-out needs no result lock.
type Results struct {
	cfg      Config
	apps     []workload.Profile
	models   []config.Model
	modelIdx map[config.ModelID]int // model ID -> matrix row
	appIdx   map[string]int         // app name -> matrix column
	matrix   []*core.Result         // len(models) * len(apps)
	work     core.Work              // kernel work summed over every cell

	// PMax is the highest average dynamic power of the base model N across
	// the suite — the anchor of the leakage formula (§3.2). The paper
	// identifies swim as this application.
	PMax    float64
	PMaxApp string
}

// Run executes the full experiment matrix deterministically (each
// model/application simulation is independent; parallel execution does not
// change any result).
//
// Jobs are handed out app-major, so the cells of one application run back
// to back and replay one selection log (logShare): the stream walk and
// trace selection, which do not depend on the model, run once per
// application instead of once per cell, and at most workers+1 logs are
// live. All jobs are preloaded into a buffered channel (no producer
// goroutine, no send blocking), each worker writes only its own cells of
// the preallocated matrix, and each worker keeps one machine per model —
// drawn from core.DefaultPool on first use and Reset between runs — so the
// pool lock is touched O(workers × models) times instead of once per cell.
func Run(cfg Config) *Results {
	apps := cfg.Apps
	if apps == nil {
		apps = workload.Apps()
	}
	models := cfg.Models
	if models == nil {
		models = config.All()
	}
	par := cfg.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}

	res := &Results{
		cfg:      cfg,
		apps:     apps,
		models:   models,
		modelIdx: make(map[config.ModelID]int, len(models)),
		appIdx:   make(map[string]int, len(apps)),
		matrix:   make([]*core.Result, len(models)*len(apps)),
	}
	for i, m := range models {
		res.modelIdx[m.ID] = i
	}
	for i, p := range apps {
		res.appIdx[p.Name] = i
	}

	// Preload every cell index in app-major order.
	jobs := make(chan int, len(res.matrix))
	for a := range apps {
		for mi := range models {
			jobs <- mi*len(apps) + a
		}
	}
	close(jobs)
	logs := newLogShare(apps, len(models), cfg.Insts)

	// Progress accounting: the counter increment and the callback share one
	// mutex, so callbacks are serialized and observe strictly increasing
	// done values — the contract SSE relays depend on. The ETA extrapolates
	// the mean per-cell wall time over the remaining cells (cells are
	// similar-sized, so the estimate converges quickly). With Progress nil
	// the mutex is never touched and the fan-out stays lock-free.
	var progressMu sync.Mutex
	done := 0
	total := len(res.matrix)
	start := time.Now()

	var wg sync.WaitGroup
	var workMu sync.Mutex
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make(map[config.Model]*core.Machine, len(models))
			var work core.Work
			defer func() {
				for _, m := range local {
					core.DefaultPool.Put(m)
				}
				workMu.Lock()
				res.work.Add(work)
				workMu.Unlock()
			}()
			for idx := range jobs {
				model := models[idx/len(apps)]
				m := local[model]
				if m == nil {
					m = core.DefaultPool.Get(model) // arrives reset
					local[model] = m
				} else {
					m.Reset()
				}
				a := idx % len(apps)
				res.matrix[idx] = m.ReplayWarm(logs.get(a))
				work.Add(m.Work())
				logs.done(a)
				if cfg.Progress != nil {
					progressMu.Lock()
					done++
					d := done
					elapsed := time.Since(start)
					var eta time.Duration
					if d > 0 {
						eta = time.Duration(int64(elapsed) / int64(d) * int64(total-d))
					}
					cfg.Progress(d, total, elapsed, eta)
					progressMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()

	res.finalizePMax()
	return res
}

// logShare hands each application's selection log to that application's
// model cells: the first cell to arrive records it (a cell that arrives
// while it is being recorded waits in the same sync.Once) and the last
// cell to finish puts its storage on the free list for a later
// application.
type logShare struct {
	profs []workload.Profile
	insts int
	apps  []appLog

	mu   sync.Mutex
	free []*core.SelectionLog
}

// appLog is one application's log and the count of its cells that have
// not yet replayed it.
type appLog struct {
	once sync.Once
	log  *core.SelectionLog
	left atomic.Int32
}

func newLogShare(profs []workload.Profile, cells, insts int) *logShare {
	s := &logShare{profs: profs, insts: insts, apps: make([]appLog, len(profs))}
	for i := range s.apps {
		s.apps[i].left.Store(int32(cells))
	}
	return s
}

// get returns application a's log, recording it on first use.
func (s *logShare) get(a int) *core.SelectionLog {
	al := &s.apps[a]
	al.once.Do(func() {
		s.mu.Lock()
		if n := len(s.free); n > 0 {
			al.log = s.free[n-1]
			s.free = s.free[:n-1]
		} else {
			al.log = new(core.SelectionLog)
		}
		s.mu.Unlock()
		al.log.RecordWarm(s.profs[a], s.insts)
	})
	return al.log
}

// done marks one of application a's cells finished; the last one frees
// the log.
func (s *logShare) done(a int) {
	al := &s.apps[a]
	if al.left.Add(-1) == 0 {
		s.mu.Lock()
		s.free = append(s.free, al.log)
		s.mu.Unlock()
		al.log = nil
	}
}

// finalizePMax derives the leakage anchor: P_MAX of the base model N,
// scanned in roster order. Shared by Run and Assemble so a matrix
// reassembled from cached cells anchors leakage identically.
func (r *Results) finalizePMax() {
	row, ok := r.modelIdx[config.N]
	if !ok {
		return
	}
	for i, p := range r.apps {
		if res := r.matrix[row*len(r.apps)+i]; res != nil {
			if pw := res.AvgDynPower(); pw > r.PMax {
				r.PMax = pw
				r.PMaxApp = p.Name
			}
		}
	}
}

// Assemble builds a Results matrix from externally produced cells — the
// serving layer's path: parrotd computes (or cache-serves) each cell
// independently, and the client reassembles the matrix to drive the same
// figure/table generators and the same Digest as an in-process Run. cell is
// called once per (model, application) pair and may return nil for cells it
// cannot produce (they digest as absent, exactly like Run's missing cells).
//
// Because each cell is a bit-exact function of its RunSpec and finalizePMax
// is shared with Run, Assemble(models, apps, insts, remoteCell) over a
// faithful transport reproduces Run(Config{...}).Digest() bit-identically —
// the end-to-end property the service smoke test enforces.
func Assemble(models []config.Model, apps []workload.Profile, insts int,
	cell func(config.Model, workload.Profile) *core.Result) *Results {
	if apps == nil {
		apps = workload.Apps()
	}
	if models == nil {
		models = config.All()
	}
	res := &Results{
		cfg:      Config{Insts: insts, Apps: apps, Models: models},
		apps:     apps,
		models:   models,
		modelIdx: make(map[config.ModelID]int, len(models)),
		appIdx:   make(map[string]int, len(apps)),
		matrix:   make([]*core.Result, len(models)*len(apps)),
	}
	for i, m := range models {
		res.modelIdx[m.ID] = i
	}
	for i, p := range apps {
		res.appIdx[p.Name] = i
	}
	for mi, m := range models {
		for ai, p := range apps {
			res.matrix[mi*len(apps)+ai] = cell(m, p)
		}
	}
	res.finalizePMax()
	return res
}

// Get returns the result for one model/application pair.
func (r *Results) Get(id config.ModelID, app string) *core.Result {
	mi, ok := r.modelIdx[id]
	if !ok {
		return nil
	}
	ai, ok := r.appIdx[app]
	if !ok {
		return nil
	}
	return r.matrix[mi*len(r.apps)+ai]
}

// Work returns the simulation kernel's work summed over every cell of the
// matrix (core.Work). It is a property of the kernel, not of the results:
// no digest or export includes it.
func (r *Results) Work() core.Work { return r.work }

// Apps returns the benchmark roster of this run.
func (r *Results) Apps() []workload.Profile { return r.apps }

// Models returns the model IDs present, in config.All order.
func (r *Results) Models() []config.ModelID {
	out := make([]config.ModelID, 0, len(r.models))
	for _, m := range config.All() {
		if _, ok := r.modelIdx[m.ID]; ok {
			out = append(out, m.ID)
		}
	}
	return out
}

// has reports whether the run includes the model.
func (r *Results) has(id config.ModelID) bool {
	_, ok := r.modelIdx[id]
	return ok
}

// TotalEnergy returns total (dynamic + leakage) energy of a run.
func (r *Results) TotalEnergy(id config.ModelID, app string) float64 {
	res := r.Get(id, app)
	if res == nil {
		return 0
	}
	return res.TotalEnergy(r.PMax)
}

// CMPW returns the cubic-MIPS-per-watt metric of a run.
func (r *Results) CMPW(id config.ModelID, app string) float64 {
	res := r.Get(id, app)
	if res == nil {
		return 0
	}
	return res.CMPW(r.PMax)
}

// groupsOf returns the presentation groups of an application: its suite,
// plus "killer" membership is handled separately by the figure code.
func groupsOf(p workload.Profile) string { return p.Suite.String() }

// killer reports whether the app is one of the three highlighted killer
// applications.
func killer(name string) bool {
	for _, k := range workload.KillerApps() {
		if k == name {
			return true
		}
	}
	return false
}
