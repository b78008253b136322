package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"msod"
)

// cluster-mixed sizes. They are synthetic, like embedded-history's
// (README.md, Inputs).
const (
	clUsers    = 3000
	clRecords  = 20000
	clClerks   = 2000
	clManagers = 2000
	clBoots    = 9 // cluster boots per run; setup_s is their median
	clWarm     = 1
	// A cycle is one bank round, an audit period of embedded-history's
	// length, with as many tax-refund processes spread through it as give
	// the two policies equal shares of the decisions: a bank round makes
	// clCash+3 decisions and a process 7. Every round carries its
	// advisory reads.
	clCash = embCash
	clTax  = (clCash + 3) / 7
)

// shardIDs name the two msodd shards behind msodgw.
var shardIDs = []string{"s1", "s2"}

// clusterProcs is one running cluster: the shards and the gateway.
type clusterProcs struct {
	shards []*daemon
	gw     *daemon
}

func (c *clusterProcs) all() []*daemon { return append(append([]*daemon(nil), c.shards...), c.gw) }

func (c *clusterProcs) stop() error {
	var first error
	for _, d := range c.all() {
		if err := d.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// bootCluster starts the shards (each with its own extra flags) in
// parallel, then the gateway in front of them, and returns once the
// gateway answers health checks.
func bootCluster(cfg *config, tag, policy string, shardArgs [][]string) (*clusterProcs, error) {
	c := &clusterProcs{shards: make([]*daemon, len(shardIDs))}
	errs := make([]error, len(shardIDs))
	var wg sync.WaitGroup
	for i, id := range shardIDs {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			args := append([]string{"-policy", policy}, shardArgs[i]...)
			c.shards[i], errs[i] = spawn(cfg, tag+"-"+id, "msodd", args...)
		}(i, id)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, d := range c.shards {
				if d != nil {
					d.kill()
				}
			}
			return nil, err
		}
	}
	spec := make([]string, len(shardIDs))
	for i, id := range shardIDs {
		spec[i] = id + "=" + c.shards[i].url()
	}
	gw, err := spawn(cfg, tag+"-gw", "msodgw", "-shards", strings.Join(spec, ","))
	if err != nil {
		c.stopShards()
		return nil, err
	}
	c.gw = gw
	if err := waitHealthy(gw.url()); err != nil {
		_ = c.stop()
		return nil, err
	}
	return c, nil
}

func (c *clusterProcs) stopShards() {
	for _, d := range c.shards {
		_ = d.stop()
	}
}

// owners asks the gateway which shard owns each user: its user-state
// read answers from the owner and names it in X-Msod-Shard.
func owners(gw string, users []string) (map[string]string, error) {
	out := make(map[string]string, len(users))
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	const workers = 4
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(users); i += workers {
				resp, err := httpc.Get(gw + "/v1/state/users/" + users[i])
				var shard string
				if err == nil {
					shard = resp.Header.Get("X-Msod-Shard")
					resp.Body.Close()
					if shard == "" {
						err = fmt.Errorf("no owner for %s: %s", users[i], resp.Status)
					}
				}
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				out[users[i]] = shard
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return out, firstErr
}

// userRecordCount reads a user's retained records through the gateway.
func userRecordCount(gw, user string) (int, error) {
	body, err := httpGet(gw + "/v1/state/users/" + user)
	if err != nil {
		return 0, err
	}
	var st msod.UserStateView
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		return 0, err
	}
	return len(st.Records), nil
}

// procEdge is one process's counters at a window edge.
type procEdge struct {
	cpu      float64
	mem      memStats
	wbytes   float64
	counters map[string]float64
}

// readEdges reads every process's counters at a window edge. A scrape
// of /v1/metrics costs real work (msodgw's fans out to the shards), so
// at the start edge every scrape comes before any CPU or allocation
// counter is read, and at the end edge after all of them: the scrapes
// stay outside the window. At the end edge the heap is read after a
// forced collection.
func readEdges(ds []*daemon, end bool) ([]procEdge, error) {
	out := make([]procEdge, len(ds))
	scrapeAll := func() error {
		for i, d := range ds {
			c, err := scrape(d.url())
			if err != nil {
				return fmt.Errorf("%s: %w", d.name, err)
			}
			out[i].counters = c
		}
		return nil
	}
	if !end {
		if err := scrapeAll(); err != nil {
			return nil, err
		}
	}
	for i, d := range ds {
		cpu, err := procCPU(d.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		out[i].cpu = cpu
		out[i].wbytes = procWriteBytes(d.cmd.Process.Pid)
	}
	for i, d := range ds {
		m, err := daemonMem(d, end)
		if err != nil {
			return nil, err
		}
		out[i].mem = m
	}
	if end {
		if err := scrapeAll(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// remoteDo sends one operation through a facade client.
func remoteDo(cl *msod.Client, o *op) (answer, error) {
	req := msod.DecisionRequest{
		User:      o.user,
		Roles:     o.roles,
		Operation: o.priv.op,
		Target:    o.priv.target,
		Context:   o.inst,
	}
	var resp msod.DecisionResponse
	var err error
	if o.advice {
		resp, err = cl.Advice(req)
	} else {
		resp, err = cl.Decision(req)
	}
	if err != nil {
		return answer{}, err
	}
	return answer{allowed: resp.Allowed, phase: resp.Phase, recorded: resp.Recorded, purged: resp.Purged}, nil
}

func runCluster(cfg *config) (*outcome, error) {
	out := &outcome{values: map[string]float64{}, record: map[string]any{}}
	_, policyPath, err := verifiedPolicy(cfg, "mixed.xml")
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	hist := genBankHistory(rng, clUsers, clRecords)
	clerks := namePool(rng, "c", clClerks)
	managers := namePool(rng, "m", clManagers)

	// Input generation: learn the ring's assignment from an empty
	// cluster, then seal each shard's history into its snapshot.
	progress("ownership probe")
	probe, err := bootCluster(cfg, "probe", policyPath, [][]string{nil, nil})
	if err != nil {
		return nil, fmt.Errorf("probe cluster: %w", err)
	}
	owner, err := owners(probe.gw.url(), append(append(append([]string(nil), hist.users...), clerks...), managers...))
	if stopErr := probe.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return nil, fmt.Errorf("ownership probe: %w", err)
	}
	recs, err := toADI(hist.recs, time.Now())
	if err != nil {
		return nil, err
	}
	secret := filepath.Join(cfg.work, "snapshot.secret")
	if err := os.WriteFile(secret, []byte("msodperf-snapshot-secret"), 0o600); err != nil {
		return nil, err
	}
	shardArgs := make([][]string, len(shardIDs))
	perShard := make(map[string]int)
	for i, id := range shardIDs {
		var mine []msod.ADIRecord
		for _, r := range recs {
			if owner[string(r.User)] == id {
				mine = append(mine, r)
			}
		}
		perShard[id] = len(mine)
		path := filepath.Join(cfg.work, id+".snap")
		ss, err := msod.NewADISecureStore(path, []byte("msodperf-snapshot-secret"))
		if err != nil {
			return nil, err
		}
		if err := ss.Save(mine); err != nil {
			return nil, fmt.Errorf("seal %s snapshot: %w", id, err)
		}
		shardArgs[i] = []string{"-recover", "snapshot", "-snapshot", path, "-snapshot-secret-file", secret}
	}
	recs = nil
	out.record["preloaded_records_per_shard"] = perShard

	progress("cluster boots")
	// Set-up: boot the cluster from the snapshots several times; the last
	// boot serves the window.
	var cl *clusterProcs
	var setups []float64
	for i := 0; i < clBoots; i++ {
		if cl != nil {
			if err := cl.stop(); err != nil {
				return nil, err
			}
		}
		s, err := timeIt(func() error {
			var err error
			cl, err = bootCluster(cfg, "boot"+strconv.Itoa(i), policyPath, shardArgs)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("cluster boot: %w", err)
		}
		setups = append(setups, s)
	}
	out.values["setup_s"] = median(setups)
	out.record["setup_runs_s"] = setups

	model, _ := newModelFor(wlCluster)
	for _, r := range hist.recs {
		model.Preload(r.user, r.roles, r.priv.op, r.priv.target, r.inst)
	}

	gen := func(c int) func() []op {
		rng := clientRand(cfg.seed, c)
		pick := newZipfPicker(rng, hist.users)
		seq := 0
		// A round is one cycle with the processes spread evenly through
		// the audit period, so any stretch of the window sees the mix.
		return func() []op {
			seq++
			name := strconv.Itoa(c) + "-" + strconv.Itoa(seq)
			bank := bankRound(rng, pick, "W"+name, clCash, true)
			ops := make([]op, 0, len(bank)+clTax*9)
			for i := 0; i < clTax; i++ {
				n := len(bank) / (clTax - i)
				ops = append(ops, bank[:n]...)
				bank = bank[n:]
				inst := taxInst(rng.Intn(taxOffices), "w"+name+"-"+strconv.Itoa(i))
				ops = append(ops, taxRound(rng, clerks, managers, inst, true)...)
			}
			return append(ops, bank...)
		}
	}
	var pcs [clients]*msod.Client
	for c := range pcs {
		pcs[c] = msod.NewClient(cl.gw.url(), msod.WithClientTimeout(30*time.Second))
	}
	do := func(c int, o *op) (answer, error) { return remoteDo(pcs[c], o) }

	hot := hist.users[0]
	procs := cl.all()
	var base []procEdge
	var self struct {
		cpu, gc float64
		mem     memStats
	}
	var end []procEdge
	var selfCPUd, selfGC float64
	var selfMemEnd memStats
	var edgeErr error
	st := closedLoop(cfg.seconds, clWarm, gen, do, func() {
		if n, err := userRecordCount(cl.gw.url(), hot); err == nil {
			out.record["hot_user_records_start"] = n
		}
		base, edgeErr = readEdges(procs, false)
		self.mem = selfMem(false)
		self.gc = selfGCCPU()
		self.cpu = selfCPU()
	}, func() {
		selfCPUd = selfCPU() - self.cpu
		selfGC = selfGCCPU() - self.gc
		selfMemEnd = selfMem(false)
		if edgeErr == nil {
			end, edgeErr = readEdges(procs, true)
		}
	}, cpuOf(procs))
	if edgeErr != nil {
		return nil, edgeErr
	}
	if n, err := userRecordCount(cl.gw.url(), hot); err == nil {
		out.record["hot_user_records_end"] = n
	}
	progress("window done")

	answered := loopValues(st, out)
	r := remoteValues(out, base, end, len(cl.shards), answered)
	logMallocs, logBytes := logAllocs(st)
	r.self(selfCPUd, selfGC, selfMemEnd.mallocs-self.mem.mallocs-logMallocs, selfMemEnd.totalAlloc-self.mem.totalAlloc-logBytes)
	r.budget(meanLatency(st))
	gwStart, gwEnd := base[len(base)-1], end[len(end)-1]
	gwD := func(name string) float64 { return gwEnd.counters[name] - gwStart.counters[name] }
	out.values["cluster.cpu_us_per_decision"] = (gwEnd.cpu - gwStart.cpu) * 1e6 / answered
	out.values["cluster.shard_calls_per_decision"] = (gwD("msodgw_routed_total") + gwD("msodgw_ctx_activation_fanouts_total") + gwD("msodgw_retries_total")) / answered
	out.values["cluster.retries"] = gwD("msodgw_retries_total")
	out.values["cluster.allocs_per_decision"] = (gwEnd.mem.mallocs - gwStart.mem.mallocs) / answered
	out.values["cluster.heap_live_bytes"] = gwEnd.mem.heapAlloc

	for _, l := range st.logs {
		out.attempted += l.n
	}
	out.failed = st.failed
	shards := newShardView(shardIDs, owner)
	checkAnswers(model, st, gen, out, shards)
	for _, name := range []string{"msodgw_misrouted_total", "msodgw_ctx_activation_withheld_total"} {
		if v := gwEnd.counters[name]; v != 0 {
			out.mismatch("%s = %v, want 0", name, v)
		}
	}
	// Each shard must retain exactly the model's records of its own
	// users, plus what last steps answered by the other shard left on it
	// (README.md, Known drift). Every context the window started has
	// ended, so no activation marker of a running one is left.
	modelByShard := model.LiveBy(func(u string) string { return owner[u] })
	for i, id := range shardIDs {
		got := end[i].counters["msod_adi_records"]
		if want := modelByShard[id] + shards.keptByPeer[id]; got != float64(want) {
			out.mismatch("shard %s retains %v records, want %d (model %d + left by peer purges %d)",
				id, got, want, modelByShard[id], shards.keptByPeer[id])
		}
	}
	out.record["model_records_end"] = model.Live()
	out.record["records_left_by_peer_purges"] = shards.keptByPeer
	out.record["retained_records_start"] = sumCounter(base[:len(cl.shards)], "msod_adi_records")
	out.record["retained_records_end"] = sumCounter(end[:len(cl.shards)], "msod_adi_records")
	if err := cl.stop(); err != nil {
		return nil, err
	}
	return out, nil
}
