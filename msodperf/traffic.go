package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// op is one request the generator sends.
type op struct {
	user   string
	roles  []string
	priv   mPriv
	inst   string
	advice bool // side-effect-free advisory read instead of a decision
}

// answer is what the program said.
type answer struct {
	allowed  bool
	phase    string
	recorded int
	purged   int
}

var (
	rolesTeller  = []string{"Teller"}
	rolesAuditor = []string{"Auditor"}
	rolesClerk   = []string{"Clerk"}
	rolesManager = []string{"Manager"}
)

// bankHistory is a preloaded bank-scale retained history: users ranked
// by a power law, the user at rank r holding about n/(r+1)^lenExp
// records, in audit periods that are still open (never committed) and
// that the timed window never touches.
type bankHistory struct {
	users []string // by rank; users[0] is the hottest
	recs  []histRec
}

type histRec struct {
	user  string
	roles []string
	priv  mPriv
	inst  string
}

const (
	histPeriods  = 24
	histBranches = 200
	// lenExp shapes history length by rank and zipfS the window's
	// choice of users by the same ranks, so the busiest users carry the
	// longest histories. The store scans a user's whole history on every
	// query, so these two set how much of a decision is history reading.
	lenExp = 0.5
	zipfS  = 1.1
)

func genBankHistory(rng *rand.Rand, nUsers, nRecs int) *bankHistory {
	h := &bankHistory{users: make([]string, nUsers)}
	for i, p := range rng.Perm(nUsers) {
		h.users[i] = fmt.Sprintf("e%06d", p)
	}
	var wsum float64
	for r := 0; r < nUsers; r++ {
		wsum += math.Pow(float64(r+1), -lenExp)
	}
	insts := make([][]string, histPeriods)
	for p := range insts {
		insts[p] = make([]string, histBranches)
		for b := range insts[p] {
			insts[p][b] = fmt.Sprintf("Branch=B%03d, Period=H%02d", b, p)
		}
	}
	h.recs = make([]histRec, 0, nRecs+nUsers)
	for r, u := range h.users {
		n := int(math.Round(float64(nRecs) * math.Pow(float64(r+1), -lenExp) / wsum))
		if n < 1 {
			n = 1
		}
		// A user is teller or auditor per period, never both, as a PDP
		// enforcing the bank policy would have left it.
		tellerIn := rng.Int63()
		for j := 0; j < n; j++ {
			p := rng.Intn(histPeriods)
			rec := histRec{user: u, roles: rolesTeller, priv: privHandleCash, inst: insts[p][rng.Intn(histBranches)]}
			if tellerIn>>uint(p)&1 == 0 {
				rec.roles, rec.priv = rolesAuditor, privAudit
			}
			h.recs = append(h.recs, rec)
		}
	}
	rng.Shuffle(len(h.recs), func(i, j int) { h.recs[i], h.recs[j] = h.recs[j], h.recs[i] })
	return h
}

// userPicker draws users by a zipf law over the history's ranks.
type userPicker struct {
	users []string
	z     *rand.Zipf
}

func newZipfPicker(rng *rand.Rand, users []string) *userPicker {
	return &userPicker{users: users, z: rand.NewZipf(rng, zipfS, 1, uint64(len(users)-1))}
}

// distinct draws n different users.
func (p *userPicker) distinct(n int) []string {
	out := make([]string, 0, n)
	for len(out) < n {
		u := p.users[p.z.Uint64()]
		dup := false
		for _, v := range out {
			dup = dup || v == u
		}
		if !dup {
			out = append(out, u)
		}
	}
	return out
}

// uniformDistinct draws n different names from a pool.
func uniformDistinct(rng *rand.Rand, pool []string, n int) []string {
	out := make([]string, 0, n)
	for len(out) < n {
		u := pool[rng.Intn(len(pool))]
		dup := false
		for _, v := range out {
			dup = dup || v == u
		}
		if !dup {
			out = append(out, u)
		}
	}
	return out
}

func namePool(rng *rand.Rand, prefix string, n int) []string {
	out := make([]string, n)
	for i, p := range rng.Perm(n) {
		out[i] = prefix + strconv.Itoa(p)
	}
	return out
}

// bankRound is one audit period run to its end by one client: tellers
// drawn by the zipf law handle cash cash times in random branches and
// an auditor audits; the first teller then tries to audit the same
// period (a violation the program must deny), and the auditor commits
// the audit, which purges the whole period across branches. With
// advice, advisory reads ride along: after every tenth cash operation
// one the model denies (that teller as auditor) or one it grants (the
// auditor's commit), alternately, and both at the end.
func bankRound(rng *rand.Rand, pick *userPicker, period string, cash int, advice bool) []op {
	a1 := pick.distinct(1)[0]
	branch := func() string { return "Branch=B" + strconv.Itoa(rng.Intn(histBranches)) + ", Period=" + period }
	home := branch()
	ops := make([]op, 0, cash+cash/10+5)
	first := ""
	for n := 0; n < cash; {
		t := pick.distinct(1)[0]
		if t == a1 {
			continue
		}
		if first == "" {
			first = t
		}
		ops = append(ops, op{user: t, roles: rolesTeller, priv: privHandleCash, inst: branch()})
		n++
		if advice && n%10 == 0 {
			if n%20 == 0 {
				ops = append(ops, op{user: a1, roles: rolesAuditor, priv: privCommitAudit, inst: home, advice: true})
			} else {
				ops = append(ops, op{user: t, roles: rolesAuditor, priv: privAudit, inst: home, advice: true})
			}
		}
	}
	ops = append(ops, op{user: a1, roles: rolesAuditor, priv: privAudit, inst: home})
	if advice {
		ops = append(ops,
			op{user: first, roles: rolesAuditor, priv: privAudit, inst: home, advice: true},
			op{user: a1, roles: rolesAuditor, priv: privCommitAudit, inst: home, advice: true})
	}
	return append(ops,
		op{user: first, roles: rolesAuditor, priv: privAudit, inst: branch()},
		op{user: a1, roles: rolesAuditor, priv: privCommitAudit, inst: home},
	)
}

// taxRound is one tax-refund process (Example 2) run to completion:
// a clerk prepares (the first step), two managers approve, the first
// of them then tries to combine (denied), a third combines, the
// preparing clerk tries to confirm (denied) and another clerk confirms
// (the last step, which purges the instance).
func taxRound(rng *rand.Rand, clerks, managers []string, inst string, advice bool) []op {
	c := uniformDistinct(rng, clerks, 2)
	m := uniformDistinct(rng, managers, 3)
	ops := []op{
		{user: c[0], roles: rolesClerk, priv: privPrepare, inst: inst},
		{user: m[0], roles: rolesManager, priv: privApprove, inst: inst},
		{user: m[1], roles: rolesManager, priv: privApprove, inst: inst},
	}
	if advice {
		ops = append(ops,
			op{user: m[1], roles: rolesManager, priv: privApprove, inst: inst, advice: true},
			op{user: m[2], roles: rolesManager, priv: privCombine, inst: inst, advice: true})
	}
	return append(ops,
		op{user: m[0], roles: rolesManager, priv: privCombine, inst: inst},
		op{user: m[2], roles: rolesManager, priv: privCombine, inst: inst},
		op{user: c[0], roles: rolesClerk, priv: privConfirm, inst: inst},
		op{user: c[1], roles: rolesClerk, priv: privConfirm, inst: inst},
	)
}

// taxOffices is how many tax offices the processes spread over.
const taxOffices = 50

func taxInst(office int, process string) string {
	return "TaxOffice=T" + strconv.Itoa(office) + ", taxRefundProcess=" + process
}

// entry is what the program answered to one issued operation. The
// operation itself is not kept: a client's operations are regenerated
// from its seed when the answers are checked, which keeps the
// generator's heap, and so its garbage collector's work, small.
type entry struct {
	err error
	// lat is the latency in microseconds and slice the window slice,
	// for operations inside the timed window (slice -1 otherwise).
	lat      float32
	slice    int16
	allowed  bool
	phase    string // one of the phase constants, never the response's own string
	recorded int32
	purged   int32
}

// Decision phases as the program reports them.
var phases = []string{"granted", "msod", "rbac", "cvs"}

func newEntry(a answer, err error) entry {
	e := entry{err: err, slice: -1, allowed: a.allowed, recorded: int32(a.recorded), purged: int32(a.purged)}
	for _, p := range phases {
		if a.phase == p {
			e.phase = p
			return e
		}
	}
	e.phase = "unknown phase " + a.phase
	return e
}

func (e *entry) answer() answer {
	return answer{allowed: e.allowed, phase: e.phase, recorded: int(e.recorded), purged: int(e.purged)}
}

// clientRand is client c's own random source for a run's seed.
func clientRand(seed int64, c int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000 + int64(c) + 1))
}

// logChunk is how many entries a log allocates at a time. Logs grow by
// whole chunks so the benchmark's own allocations in the window are a
// known amount it can take out of the program's.
const logChunk = 4096

// logChunkBytes is what one chunk costs the heap: its size rounded up
// to whole 8 KiB pages, as the Go allocator does for large objects.
var logChunkBytes = float64((int(unsafe.Sizeof(entry{}))*logChunk + 8191) / 8192 * 8192)

// clientLog is one client's issued operations and answers, in order.
type clientLog struct {
	chunks [][]entry
	n      int
	window int // operations issued inside the timed window
	// grown counts chunks allocated inside the timed window.
	grown int
}

func newClientLog() *clientLog { return &clientLog{chunks: make([][]entry, 0, 1024)} }

func (l *clientLog) add(e entry, timed bool) {
	if len(l.chunks) == 0 || len(l.chunks[len(l.chunks)-1]) == logChunk {
		l.chunks = append(l.chunks, make([]entry, 0, logChunk))
		if timed {
			l.grown++
		}
	}
	last := &l.chunks[len(l.chunks)-1]
	*last = append(*last, e)
	l.n++
	if timed {
		l.window++
	}
}

// at returns the i-th entry.
func (l *clientLog) at(i int) *entry { return &l.chunks[i/logChunk][i%logChunk] }

// logAllocs returns the allocations the logs made inside the window.
func logAllocs(st *loopStats) (mallocs, bytes float64) {
	for _, l := range st.logs {
		mallocs += float64(l.grown)
		bytes += float64(l.grown) * logChunkBytes
	}
	return mallocs, bytes
}

// The window is cut into one-second slices. The reported figures cover
// the whole window; the slices are kept in the run record as a
// diagnostic, with the time the hypervisor gave the host's CPUs to
// other guests during each (steal time in /proc/stat).
const sliceLen = time.Second

// loopStats are the closed loop's totals.
type loopStats struct {
	logs      [clients]*clientLog
	windowSec float64
	windowOps int
	failed    int
	// windowCPU is the CPU seconds every process of the workload used
	// in the window.
	windowCPU float64
	// Per slice: requests completed, CPU seconds used by every process
	// of the workload, wall seconds and steal ticks.
	sliceOps, sliceCPU, sliceSec, sliceSteal []float64
}

// closedLoop runs the clients: each issues whole rounds, one request
// at a time, first warm rounds untimed and then rounds until the window
// has run for seconds. A round started inside the window is finished,
// so every run ends with whole rounds; requests finished after the
// window count toward its last slice. onStart runs between the warm
// rounds and the window, to read the window's starting edge; cpuNow
// returns the CPU seconds used so far by every process of the workload.
// onEnd runs as soon as the last round ends, before the loop's own
// bookkeeping, to read the window's closing edge.
//
// gen(c) returns client c's round generator; calling gen again must
// yield the same rounds, which is how checkAnswers recovers them.
func closedLoop(seconds float64, warm int, gen func(c int) func() []op, do func(c int, o *op) (answer, error), onStart, onEnd func(), cpuNow func() float64) *loopStats {
	st := &loopStats{}
	var next [clients]func() []op
	for c := range st.logs {
		st.logs[c] = newClientLog()
		next[c] = gen(c)
	}
	n := max(2, int(math.Round(seconds*float64(time.Second)/float64(sliceLen))))
	done := make([]atomic.Int64, n)
	run := func(c int, rounds int, until time.Time, t0 time.Time, timed bool) {
		l := st.logs[c]
		for r := 0; timed || r < rounds; r++ {
			if timed && !time.Now().Before(until) {
				return
			}
			for _, o := range next[c]() {
				o := o
				start := time.Now()
				a, err := do(c, &o)
				end := time.Now()
				e := newEntry(a, err)
				if timed {
					k := min(int(end.Sub(t0)/sliceLen), n-1)
					e.slice = int16(k)
					e.lat = float32(end.Sub(start).Nanoseconds()) / 1e3
					done[k].Add(1)
				}
				l.add(e, timed)
			}
		}
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			run(c, warm, time.Time{}, time.Time{}, false)
		}(c)
	}
	wg.Wait()
	progress("window starts")
	onStart()
	cpus := []float64{cpuNow()}
	steals := []float64{stealTicks()}
	t0 := time.Now()
	times := []time.Time{t0}
	until := t0.Add(time.Duration(seconds * float64(time.Second)))
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			run(c, 0, until, t0, true)
		}(c)
	}
	// Slice edges; the last slice ends when the last round does.
	edge := func() {
		cpus = append(cpus, cpuNow())
		steals = append(steals, stealTicks())
		times = append(times, time.Now())
	}
	for k := 1; k < n; k++ {
		time.Sleep(time.Until(t0.Add(time.Duration(k) * sliceLen)))
		edge()
	}
	wg.Wait()
	edge()
	st.windowSec = time.Since(t0).Seconds()
	onEnd()

	for _, l := range st.logs {
		st.windowOps += l.window
		for i := 0; i < l.n; i++ {
			if l.at(i).err != nil {
				st.failed++
			}
		}
	}
	st.windowCPU = cpus[n] - cpus[0]
	for k := 0; k < n; k++ {
		st.sliceOps = append(st.sliceOps, float64(done[k].Load()))
		st.sliceCPU = append(st.sliceCPU, cpus[k+1]-cpus[k])
		st.sliceSec = append(st.sliceSec, times[k+1].Sub(times[k]).Seconds())
		st.sliceSteal = append(st.sliceSteal, steals[k+1]-steals[k])
	}
	return st
}

// shardView is how a cluster splits the retained records over its
// shards. owner maps each user to the shard holding the user's records.
// A FirstStep-gated context also leaves an activation marker, one
// retained record, on every shard but the one that answered its first
// step (the gateway's activation fan-out); started maps each running
// such context to that shard.
type shardView struct {
	ids     []string
	owner   map[string]string
	started map[string]string
	// keptByPeer counts, by shard, the records a last step answered by
	// another shard left behind.
	keptByPeer map[string]int
}

func newShardView(ids []string, owner map[string]string) *shardView {
	return &shardView{ids: ids, owner: owner, started: make(map[string]string), keptByPeer: make(map[string]int)}
}

// apply follows one granted decision of the model and returns the
// purge count the answering shard must report.
func (v *shardView) apply(m *Model, o *op, want mDecision) int {
	if want.started {
		v.started[o.inst] = v.owner[o.user]
	}
	if !want.ended {
		return want.purged
	}
	share := make(map[string]int)
	for u, n := range m.PurgedBy() {
		share[v.owner[u]] += n
	}
	if starter, ok := v.started[o.inst]; ok {
		for _, id := range v.ids {
			if id != starter {
				share[id]++
			}
		}
		delete(v.started, o.inst)
	}
	at := v.owner[o.user]
	for id, n := range share {
		if id != at {
			v.keptByPeer[id] += n
		}
	}
	return share[at]
}

// checkAnswers replays every client's operations through the model, one
// client after the other (their context instances are disjoint, so the
// interleaving cannot matter), and records every disagreement. With a
// shard view, a purge is checked shard by shard: the answering shard
// (the requester's) must report exactly its own share.
func checkAnswers(m *Model, st *loopStats, gen func(c int) func() []op, out *outcome, shards *shardView) {
	for c, l := range st.logs {
		next := gen(c)
		var round []op
		for i := 0; i < l.n; i++ {
			if len(round) == 0 {
				round = next()
			}
			o := &round[0]
			round = round[1:]
			e := l.at(i)
			if e.err != nil {
				out.mismatch("client %d op %d (%s %s %q): %v", c, i, o.user, o.priv.op, o.inst, e.err)
				continue
			}
			var want mDecision
			if o.advice {
				want = m.Peek(o.user, o.roles, o.priv.op, o.priv.target, o.inst)
			} else {
				want = m.Decide(o.user, o.roles, o.priv.op, o.priv.target, o.inst)
				if shards != nil && want.allowed {
					want.purged = shards.apply(m, o, want)
				}
			}
			got := e.answer()
			bad := got.allowed != want.allowed || got.phase != want.phase
			if !o.advice {
				bad = bad || got.recorded != want.recorded || got.purged != want.purged
			}
			if bad {
				out.mismatch("client %d op %d (%s %v %s in %q advice=%v): program %+v, model %+v",
					c, i, o.user, o.roles, o.priv.op, o.inst, o.advice, got, want)
			}
		}
	}
}

// loopValues fills the closed loop's end-to-end values over the whole
// window, and the drift record. It returns the requests answered in the
// window.
func loopValues(st *loopStats, out *outcome) (answered float64) {
	var lat []float64
	for _, l := range st.logs {
		for i := l.n - l.window; i < l.n; i++ {
			e := l.at(i)
			if e.err == nil {
				lat = append(lat, float64(e.lat))
			}
		}
	}
	answered = float64(len(lat))
	sortFloats(lat)
	out.values["decisions_per_s"] = answered / st.windowSec
	out.values["cpu_us_per_decision"] = st.windowCPU * 1e6 / answered
	out.values["decide_p50_us"] = quantile(lat, 0.50)
	out.values["decide_p99_us"] = quantile(lat, 0.99)
	n := len(st.sliceOps)
	rates := make([]float64, n)
	cpu := make([]float64, n)
	for k := range rates {
		rates[k] = st.sliceOps[k] / st.sliceSec[k]
		cpu[k] = st.sliceCPU[k] * 1e6 / st.sliceOps[k]
	}
	out.record["window_s"] = st.windowSec
	out.record["window_requests"] = st.windowOps
	out.record["slice_rates_per_s"] = rates
	out.record["slice_cpu_us_per_decision"] = cpu
	out.record["slice_steal_ticks"] = st.sliceSteal
	// Drift: a level workload runs as fast in its second half as in its
	// first.
	out.record["rate_first_half_per_s"] = mean(rates[:n/2])
	out.record["rate_second_half_per_s"] = mean(rates[n/2:])
	return answered
}

// meanLatency is the mean latency of every window request.
func meanLatency(st *loopStats) float64 {
	t, n := 0.0, 0
	for _, l := range st.logs {
		for i := 0; i < l.n; i++ {
			if e := l.at(i); e.slice >= 0 {
				t += float64(e.lat)
				n++
			}
		}
	}
	return t / float64(n)
}
