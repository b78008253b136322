package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"msod"
)

// embedded-history sizes: a bank-scale retained history the window's
// decisions query but never change.
const (
	embUsers   = 20000
	embRecords = 100000
	embSetups  = 9 // set-ups per run; setup_s is their median
	embWarm    = 1
	// embCash is the cash operations of one audit period, which then
	// ends in one purge. A purge scans the whole store, so this sets the
	// share of decision time spent purging against querying.
	embCash = 2000
	// ingestBatch is the Append batch size of the history ingest.
	ingestBatch = 1000
)

// verifiedPolicy reads one of the benchmark's policy documents and
// runs the program's own verification on it; any error finding
// refuses the run.
func verifiedPolicy(cfg *config, name string) (*msod.Policy, string, error) {
	path := filepath.Join(cfg.root, "msodperf", "policies", name)
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	res, err := msod.VerifyPolicySource(raw)
	if err != nil {
		return nil, "", fmt.Errorf("verify %s: %w", name, err)
	}
	if n := res.Errors(); n > 0 {
		return nil, "", fmt.Errorf("verify %s: %d error finding(s): %v", name, n, res.Findings)
	}
	return res.Policy, path, nil
}

func toADI(h []histRec, now time.Time) ([]msod.ADIRecord, error) {
	parsed := make(map[string]msod.Context)
	out := make([]msod.ADIRecord, len(h))
	for i, r := range h {
		ctx, ok := parsed[r.inst]
		if !ok {
			var err error
			if ctx, err = msod.ParseContext(r.inst); err != nil {
				return nil, err
			}
			parsed[r.inst] = ctx
		}
		out[i] = msod.ADIRecord{
			User:      msod.UserID(r.user),
			Roles:     roleNames(r.roles),
			Operation: msod.Operation(r.priv.op),
			Target:    msod.Object(r.priv.target),
			Context:   ctx,
			Time:      now.Add(-time.Duration(len(h)-i) * time.Second),
		}
	}
	return out, nil
}

func roleNames(roles []string) []msod.RoleName {
	out := make([]msod.RoleName, len(roles))
	for i, r := range roles {
		out[i] = msod.RoleName(r)
	}
	return out
}

func runEmbedded(cfg *config) (*outcome, error) {
	out := &outcome{values: map[string]float64{}, record: map[string]any{}}
	pol, _, err := verifiedPolicy(cfg, "bank.xml")
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	hist := genBankHistory(rng, embUsers, embRecords)
	recs, err := toADI(hist.recs, time.Now())
	if err != nil {
		return nil, err
	}

	// Set-up: ingest the history into a fresh indexed store and build
	// the PDP over it, several times; the last one serves the window.
	var (
		store   *msod.ADIStore
		pdp     *msod.PDP
		timed   *timedRecorder
		setups  []float64
		ingests []float64
	)
	for i := 0; i < embSetups; i++ {
		store, pdp = nil, nil
		runtime.GC()
		var ingest float64
		s, err := timeIt(func() error {
			store = msod.NewADIStore()
			t0 := time.Now()
			for j := 0; j < len(recs); j += ingestBatch {
				if err := store.Append(recs[j:min(j+ingestBatch, len(recs))]...); err != nil {
					return err
				}
			}
			ingest = time.Since(t0).Seconds()
			var rec msod.ADIRecorder = store
			if cfg.trace {
				timed = &timedRecorder{inner: store}
				rec = timed
			}
			var err error
			pdp, err = msod.NewPDP(msod.PDPConfig{Policy: pol, Store: rec})
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, s)
		ingests = append(ingests, ingest)
	}
	recs = nil
	out.values["setup_s"] = median(setups)
	out.record["setup_runs_s"] = setups
	out.record["preloaded_records"] = store.Len()

	progress("set-up done")
	model, _ := newModelFor(wlEmbedded)
	for _, r := range hist.recs {
		model.Preload(r.user, r.roles, r.priv.op, r.priv.target, r.inst)
	}
	if store.Len() != model.Live() {
		out.mismatch("after ingest the store holds %d records, the model %d", store.Len(), model.Live())
	}

	hot := msod.UserID(hist.users[0])
	all := msod.MustContext("")
	hotLen := func() int { return len(store.UserRecords(hot, all)) }
	out.record["hot_user_records_start"] = hotLen()
	out.record["retained_records_start"] = store.Len()

	gen := func(c int) func() []op {
		rng := clientRand(cfg.seed, c)
		pick := newZipfPicker(rng, hist.users)
		seq := 0
		return func() []op {
			seq++
			return bankRound(rng, pick, "W"+strconv.Itoa(c)+"-"+strconv.Itoa(seq), embCash, false)
		}
	}
	var decideNS atomic.Int64
	do := func(c int, o *op) (answer, error) {
		ctx, err := msod.ParseContext(o.inst)
		if err != nil {
			return answer{}, err
		}
		req := msod.Request{
			User:      msod.UserID(o.user),
			Roles:     roleNames(o.roles),
			Operation: msod.Operation(o.priv.op),
			Target:    msod.Object(o.priv.target),
			Context:   ctx,
		}
		t0 := time.Now()
		d, err := pdp.Decide(req)
		decideNS.Add(int64(time.Since(t0)))
		if err != nil {
			return answer{}, err
		}
		a := answer{allowed: d.Allowed, phase: string(d.Phase)}
		if d.MSoD != nil {
			a.recorded, a.purged = d.MSoD.Recorded, d.MSoD.Purged
		}
		return a, nil
	}

	// Warm-up rounds run first, then the edges of the window are read.
	var base struct {
		cpu, gc float64
		mem     memStats
		adi     recorderStats
	}
	var cpu, gcCPU float64
	var mem memStats
	st := closedLoop(cfg.seconds, embWarm, gen, do, func() {
		decideNS.Store(0)
		if timed != nil {
			base.adi = timed.snapshot()
		}
		base.mem = selfMem(false)
		base.gc = selfGCCPU()
		base.cpu = selfCPU()
	}, func() {
		cpu = selfCPU() - base.cpu
		gcCPU = selfGCCPU() - base.gc
		mem = selfMem(false)
	}, selfCPU)
	var adiStats recorderStats
	if timed != nil {
		adiStats = timed.snapshot().sub(base.adi)
	}
	progress("window done")
	out.record["hot_user_records_end"] = hotLen()
	out.record["retained_records_end"] = store.Len()

	// Live heap with the PDP and its store reachable, less the heap once
	// they are dropped: the benchmark's own data is in both.
	withState := selfMem(true).heapAlloc
	finalLen := store.Len()
	runtime.KeepAlive(pdp)
	store, pdp, timed = nil, nil, nil
	without := selfMem(true).heapAlloc

	answered := loopValues(st, out)
	// The benchmark's own request log is taken out; what remains is the
	// PDP, the facade and the generator's request construction.
	logMallocs, logBytes := logAllocs(st)
	out.values["allocs_per_decision"] = (mem.mallocs - base.mem.mallocs - logMallocs) / answered
	out.values["bytes_per_decision"] = (mem.totalAlloc - base.mem.totalAlloc - logBytes) / answered
	out.values["heap_live_bytes"] = withState - without
	out.record["heap_benchmark_bytes"] = without

	decisions := float64(st.windowOps)
	pdpUS := float64(decideNS.Load()) / 1e3 / decisions
	adiUS := (adiStats.readNS + adiStats.writeNS) / 1e3 / decisions
	out.values["pdp.decide_us"] = pdpUS
	out.values["pdp.self_us_per_decision"] = pdpUS - adiUS
	out.values["adi.calls_per_decision"] = adiStats.calls / decisions
	out.values["adi.read_us_per_decision"] = adiStats.readNS / 1e3 / decisions
	out.values["adi.write_us_per_decision"] = adiStats.writeNS / 1e3 / decisions
	out.values["adi.ingest_records_per_s"] = float64(len(hist.recs)) / median(ingests)
	out.values["runtime.gc_cpu_us_per_decision"] = gcCPU * 1e6 / decisions
	out.values["client.cpu_us_per_decision"] = cpu * 1e6 / decisions
	out.values["disk.write_bytes_per_decision"] = 0

	for _, l := range st.logs {
		out.attempted += l.n
	}
	out.failed = st.failed
	checkAnswers(model, st, gen, out, nil)
	if finalLen != model.Live() {
		out.mismatch("final retained records: program %d, model %d", finalLen, model.Live())
	}
	return out, nil
}

// recorderStats are the decorator's counters.
type recorderStats struct {
	calls, readNS, writeNS float64
}

func (a recorderStats) sub(b recorderStats) recorderStats {
	return recorderStats{a.calls - b.calls, a.readNS - b.readNS, a.writeNS - b.writeNS}
}

// timedRecorder wraps the retained-ADI store passed to the PDP and
// times every call into it. It forwards AppendCtx, the optional
// interface the engine asserts, so the engine sees the same store
// surface it would without the decorator.
type timedRecorder struct {
	inner           msod.ADIRecorder
	calls           atomic.Int64
	readNS, writeNS atomic.Int64
}

func (t *timedRecorder) snapshot() recorderStats {
	return recorderStats{float64(t.calls.Load()), float64(t.readNS.Load()), float64(t.writeNS.Load())}
}

func (t *timedRecorder) read(t0 time.Time) {
	t.readNS.Add(int64(time.Since(t0)))
	t.calls.Add(1)
}

func (t *timedRecorder) write(t0 time.Time) {
	t.writeNS.Add(int64(time.Since(t0)))
	t.calls.Add(1)
}

func (t *timedRecorder) Append(recs ...msod.ADIRecord) error {
	defer t.write(time.Now())
	return t.inner.Append(recs...)
}

func (t *timedRecorder) AppendCtx(ctx context.Context, recs ...msod.ADIRecord) error {
	defer t.write(time.Now())
	if ca, ok := t.inner.(interface {
		AppendCtx(context.Context, ...msod.ADIRecord) error
	}); ok {
		return ca.AppendCtx(ctx, recs...)
	}
	return t.inner.Append(recs...)
}

func (t *timedRecorder) UserHasRole(u msod.UserID, p msod.Context, r msod.RoleName) (bool, error) {
	defer t.read(time.Now())
	return t.inner.UserHasRole(u, p, r)
}

func (t *timedRecorder) UserHasPrivilege(u msod.UserID, p msod.Context, perm msod.Permission) (bool, error) {
	defer t.read(time.Now())
	return t.inner.UserHasPrivilege(u, p, perm)
}

func (t *timedRecorder) CountUserRole(u msod.UserID, p msod.Context, r msod.RoleName, max int) (int, error) {
	defer t.read(time.Now())
	return t.inner.CountUserRole(u, p, r, max)
}

func (t *timedRecorder) CountUserPrivilege(u msod.UserID, p msod.Context, perm msod.Permission, max int) (int, error) {
	defer t.read(time.Now())
	return t.inner.CountUserPrivilege(u, p, perm, max)
}

func (t *timedRecorder) ContextActive(p msod.Context) (bool, error) {
	defer t.read(time.Now())
	return t.inner.ContextActive(p)
}

func (t *timedRecorder) PurgeContext(p msod.Context) (int, error) {
	defer t.write(time.Now())
	return t.inner.PurgeContext(p)
}

func (t *timedRecorder) Len() int { return t.inner.Len() }
