package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"heardof/internal/sweep"
)

// Config controls how a Runner executes experiment sweeps.
type Config struct {
	// Seed is the base seed for all randomized runs; every cell derives
	// its own stream from it, so tables depend only on Seed, never on
	// scheduling.
	Seed uint64
	// Parallel is the sweep worker count; 0 means all cores. Output is
	// byte-identical for every value.
	Parallel int
	// CellTimeout bounds each simulation cell; 0 means none. A cell that
	// exceeds it becomes a table note instead of a hang.
	CellTimeout time.Duration
	// OnProgress, if non-nil, receives live per-cell completion events.
	OnProgress func(sweep.Progress)
}

// Runner regenerates experiment tables through the sweep engine. Every
// table is expressed as a slice of independent (configuration, seed)
// cells; the engine fans them out across workers and the Runner folds the
// results back in cell order.
type Runner struct {
	cfg Config
	eng *sweep.Engine
}

// New returns a Runner for the given configuration.
func New(cfg Config) *Runner {
	return &Runner{
		cfg: cfg,
		eng: &sweep.Engine{
			Workers:     cfg.Parallel,
			CellTimeout: cfg.CellTimeout,
			OnProgress:  cfg.OnProgress,
		},
	}
}

// catalogue lists the byte-reproducible experiments in canonical order
// (E12 measures real time and is run on request only, see E12Live).
var catalogue = []struct {
	id  string
	run func(*Runner, context.Context) *Table
}{
	{"e1", (*Runner).E1Theorem3},
	{"e2", (*Runner).E2Corollary4},
	{"e3", (*Runner).E3InitialVsNonInitial},
	{"e4", (*Runner).E4Theorem6},
	{"e5", (*Runner).E5Theorem7},
	{"e6", (*Runner).E6FullStack},
	{"e7", (*Runner).E7SafetyAndLiveness},
	{"e8", (*Runner).E8Uniformity},
	{"e9", (*Runner).E9LossSweep},
	{"e10", (*Runner).E10Service},
	{"e11", (*Runner).E11Sharding},
	{"ea", (*Runner).Ablations},
}

// IDs returns the experiment identifiers in canonical order.
func IDs() []string {
	ids := make([]string, len(catalogue))
	for i, e := range catalogue {
		ids[i] = e.id
	}
	return ids
}

// Run regenerates one experiment table by id (e1..e11, ea).
func (r *Runner) Run(ctx context.Context, id string) (*Table, error) {
	id = strings.ToLower(strings.TrimSpace(id))
	for _, e := range catalogue {
		if e.id == id {
			return e.run(r, ctx), nil
		}
	}
	return nil, fmt.Errorf("unknown experiment %q (want e1..e11 or ea)", id)
}

// All regenerates every experiment table in canonical order.
func (r *Runner) All(ctx context.Context) []*Table {
	tables := make([]*Table, len(catalogue))
	for i, e := range catalogue {
		tables[i] = e.run(r, ctx)
	}
	return tables
}

// tableOp is a cell's contribution to its table, applied in cell order so
// that row order is independent of completion order.
type tableOp = func(*Table)

// rowCell wraps a computation that yields one table contribution into a
// sweep cell.
func rowCell(label string, run func() (tableOp, error)) sweep.Cell {
	return sweep.Cell{Label: label, Run: func(context.Context) (any, error) {
		op, err := run()
		if err != nil {
			return nil, err
		}
		return op, nil
	}}
}

// runCells executes cells through the engine and folds failures into
// table notes: timeouts and cell errors each become one note, and a
// cancelled sweep is summarized in a single trailing note. The returned
// slice is in cell order and always has one entry per cell (failed cells
// with a nil Value), for experiments that aggregate raw values.
func (r *Runner) runCells(ctx context.Context, t *Table, cells []sweep.Cell) []sweep.Result {
	results, err := r.eng.Run(ctx, cells)
	skipped := 0
	for _, res := range results {
		switch {
		case res.TimedOut:
			t.Notes = append(t.Notes, fmt.Sprintf("%s: timed out after %v; cell abandoned",
				res.Label, r.cfg.CellTimeout))
		case res.Skipped():
			skipped++
		case res.Err != nil:
			t.Notes = append(t.Notes, res.Label+": "+res.Err.Error())
		}
	}
	if err != nil {
		t.Notes = append(t.Notes, fmt.Sprintf("sweep aborted (%v): %d of %d cells not run",
			err, skipped, len(cells)))
	}
	return results
}

// sweepInto runs row-producing cells and applies their contributions to
// the table in cell order.
func (r *Runner) sweepInto(ctx context.Context, t *Table, cells []sweep.Cell) {
	for _, res := range r.runCells(ctx, t, cells) {
		if op, ok := res.Value.(tableOp); ok && op != nil {
			op(t)
		}
	}
}
