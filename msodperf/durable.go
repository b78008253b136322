package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"msod"
)

// durable-workflow sizes.
const (
	// durBacklog is the number of long-running tax-refund processes the
	// generation pass leaves open (prepared and approved once, never
	// confirmed): the history a restart must recover.
	durBacklog  = 4000
	durRestarts = 9 // restarts per run; setup_s is their median
	durWarm     = 5
	durClerks   = 2000
	durManagers = 2000
	// durProbes is how many backlog processes the final restart is
	// probed on.
	durProbes = 200
)

var trailKey = []byte("msodperf-trail-key")

func runDurable(cfg *config) (*outcome, error) {
	out := &outcome{values: map[string]float64{}, record: map[string]any{}}
	_, policyPath, err := verifiedPolicy(cfg, "taxrefund.xml")
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	clerks := namePool(rng, "c", durClerks)
	managers := namePool(rng, "m", durManagers)

	adiDir := filepath.Join(cfg.work, "adi")
	trailDir := filepath.Join(cfg.work, "trail")
	adiSecret := filepath.Join(cfg.work, "adi.secret")
	keyFile := filepath.Join(cfg.work, "trail.key")
	if err := os.WriteFile(adiSecret, []byte("msodperf-adi-secret"), 0o600); err != nil {
		return nil, err
	}
	if err := os.WriteFile(keyFile, trailKey, 0o600); err != nil {
		return nil, err
	}
	genArgs := []string{"-policy", policyPath, "-adi", adiDir, "-adi-secret-file", adiSecret,
		"-trail", trailDir, "-trail-key-file", keyFile}
	args := append([]string{"-adi-sync"}, genArgs...)
	model, _ := newModelFor(wlDurable)
	acked := 0 // decisions the program answered, each one a trail entry

	// Generation pass (untimed): open the backlog, then crash the daemon
	// so the restarts recover from the write-ahead log and the trail. The
	// pass runs without -adi-sync only to be quick: every WAL entry is
	// flushed to the OS either way, so a process crash loses none.
	backlog := make([][]op, clients)
	for i := 0; i < durBacklog; i++ {
		c := uniformDistinct(rng, clerks, 1)[0]
		m := uniformDistinct(rng, managers, 1)[0]
		inst := taxInst(rng.Intn(taxOffices), "b"+strconv.Itoa(i))
		backlog[i%clients] = append(backlog[i%clients],
			op{user: c, roles: rolesClerk, priv: privPrepare, inst: inst},
			op{user: m, roles: rolesManager, priv: privApprove, inst: inst})
	}
	progress("generation pass: %d processes", durBacklog)
	generator, err := spawn(cfg, "generate", "msodd", genArgs...)
	if err != nil {
		return nil, err
	}
	genLogs, err := sendAll(generator.url(), backlog)
	generator.kill()
	if err != nil {
		return nil, fmt.Errorf("generation pass: %w", err)
	}
	for c, l := range genLogs {
		for i := 0; i < l.n; i++ {
			e := l.at(i)
			o := &backlog[c][i]
			want := model.Decide(o.user, o.roles, o.priv.op, o.priv.target, o.inst)
			if got := e.answer(); e.err != nil || got.allowed != want.allowed || got.phase != want.phase || got.recorded != want.recorded {
				out.mismatch("generation op %d (%s %s %q): program %+v err=%v, model %+v", i, o.user, o.priv.op, o.inst, got, e.err, want)
			}
			if e.err == nil {
				acked++
			}
			out.attempted++
		}
	}
	out.record["backlog_records"] = model.Live()

	progress("restarts")
	// Set-up: restart with recovery, several times; each but the last
	// is crashed again so every restart recovers the same state.
	var d *daemon
	var setups []float64
	for i := 0; i < durRestarts; i++ {
		if d != nil {
			d.kill()
		}
		s, err := timeIt(func() error {
			var err error
			if d, err = spawn(cfg, "restart"+strconv.Itoa(i), "msodd", args...); err != nil {
				return err
			}
			return waitHealthy(d.url())
		})
		if err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
		setups = append(setups, s)
	}
	out.values["setup_s"] = median(setups)
	out.record["setup_runs_s"] = setups

	gen := func(c int) func() []op {
		rng := clientRand(cfg.seed, c)
		seq := 0
		return func() []op {
			seq++
			return taxRound(rng, clerks, managers, taxInst(rng.Intn(taxOffices), "w"+strconv.Itoa(c)+"-"+strconv.Itoa(seq)), false)
		}
	}
	var pcs [clients]*msod.Client
	for c := range pcs {
		pcs[c] = msod.NewClient(d.url(), msod.WithClientTimeout(30*time.Second))
	}
	do := func(c int, o *op) (answer, error) { return remoteDo(pcs[c], o) }
	hot := model.HottestUser()
	var base []procEdge
	var self struct {
		cpu, gc float64
		mem     memStats
	}
	var end []procEdge
	var selfCPUd, selfGC float64
	var selfMemEnd memStats
	var edgeErr error
	st := closedLoop(cfg.seconds, durWarm, gen, do, func() {
		if n, err := userRecordCount(d.url(), hot); err == nil {
			out.record["hot_user_records_start"] = n
		}
		base, edgeErr = readEdges([]*daemon{d}, false)
		self.mem = selfMem(false)
		self.gc = selfGCCPU()
		self.cpu = selfCPU()
	}, func() {
		selfCPUd = selfCPU() - self.cpu
		selfGC = selfGCCPU() - self.gc
		selfMemEnd = selfMem(false)
		if edgeErr == nil {
			end, edgeErr = readEdges([]*daemon{d}, true)
		}
	}, cpuOf([]*daemon{d}))
	if edgeErr != nil {
		return nil, edgeErr
	}
	progress("window done")
	answered := loopValues(st, out)
	r := remoteValues(out, base, end, 1, answered)
	logMallocs, logBytes := logAllocs(st)
	r.self(selfCPUd, selfGC, selfMemEnd.mallocs-self.mem.mallocs-logMallocs, selfMemEnd.totalAlloc-self.mem.totalAlloc-logBytes)
	r.budget(meanLatency(st))
	out.values["adi.recovery_s"] = base[0].counters["msod_adi_recovery_seconds"]
	out.record["retained_records_start"] = base[0].counters["msod_adi_records"]
	out.record["retained_records_end"] = end[0].counters["msod_adi_records"]
	if n, err := userRecordCount(d.url(), hot); err == nil {
		out.record["hot_user_records_end"] = n
	}

	for _, l := range st.logs {
		out.attempted += l.n
		for i := 0; i < l.n; i++ {
			if l.at(i).err == nil {
				acked++
			}
		}
	}
	out.failed = st.failed
	checkAnswers(model, st, gen, out, nil)
	if err := d.stop(); err != nil {
		return nil, err
	}

	progress("verification restart")
	// A further restart must hold the model's history and answer its
	// probes: the backlog's conflicts still deny, fresh users still pass.
	v, err := spawn(cfg, "verify", "msodd", args...)
	if err != nil {
		return nil, err
	}
	if err := waitHealthy(v.url()); err != nil {
		return nil, err
	}
	m, err := scrape(v.url())
	if err != nil {
		return nil, err
	}
	if got := m["msod_adi_records"]; got != float64(model.Live()) {
		out.mismatch("after restart the program holds %v records, the model %d", got, model.Live())
	}
	pc := msod.NewClient(v.url(), msod.WithClientTimeout(30*time.Second))
	probes := 0
	for i := 0; i < durProbes && i < len(backlog[0])/2; i++ {
		prep, appr := backlog[0][2*i], backlog[0][2*i+1]
		for _, o := range []op{
			{user: appr.user, roles: rolesManager, priv: privCombine, inst: appr.inst, advice: true},
			{user: prep.user, roles: rolesClerk, priv: privConfirm, inst: prep.inst, advice: true},
			{user: "fresh-m" + strconv.Itoa(i), roles: rolesManager, priv: privApprove, inst: appr.inst, advice: true},
			{user: "fresh-c" + strconv.Itoa(i), roles: rolesClerk, priv: privConfirm, inst: prep.inst, advice: true},
		} {
			got, err := remoteDo(pc, &o)
			want := model.Peek(o.user, o.roles, o.priv.op, o.priv.target, o.inst)
			if err != nil || got.allowed != want.allowed || got.phase != want.phase {
				out.mismatch("probe %s %s %q after restart: program %+v err=%v, model %+v", o.user, o.priv.op, o.inst, got, err, want)
			}
			probes++
		}
	}
	out.record["restart_probes"] = probes
	if err := v.stop(); err != nil {
		return nil, err
	}
	progress("trail verification")
	rd, err := msod.NewAuditReader(trailDir, trailKey)
	if err != nil {
		return nil, err
	}
	entries, err := rd.Verify()
	if err != nil {
		out.mismatch("trail does not verify: %v", err)
	}
	if entries != acked {
		out.mismatch("trail holds %d entries, the program acknowledged %d decisions", entries, acked)
	}
	out.record["trail_entries"] = entries
	return out, nil
}

// sendAll sends each client's operations in order through its own
// facade client, the clients in parallel.
func sendAll(base string, ops [][]op) ([]*clientLog, error) {
	logs := make([]*clientLog, len(ops))
	var wg sync.WaitGroup
	for c := range ops {
		logs[c] = newClientLog()
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			pc := msod.NewClient(base, msod.WithClientTimeout(30*time.Second))
			l := logs[c]
			for i := range ops[c] {
				a, err := remoteDo(pc, &ops[c][i])
				l.add(newEntry(a, err), false)
			}
		}(c)
	}
	wg.Wait()
	for _, l := range logs {
		for i := 0; i < l.n; i++ {
			if err := l.at(i).err; err != nil {
				return logs, err
			}
		}
	}
	return logs, nil
}
