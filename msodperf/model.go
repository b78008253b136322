package main

import (
	"fmt"
	"strings"
)

// This file is the benchmark's own model of the §4.2 enforcement
// algorithm, written from the paper and not from the program: it
// imports nothing from msod. Every answer the program gives during a
// run is checked against it.
//
// The model covers what the benchmark's policies use:
//   - MMER with a last step (Example 1, the bank);
//   - MMEP with multiset counting and first and last steps (Example 2,
//     the tax refund);
//   - a FirstStep context that has not started: operations before the
//     first step are granted but neither constrained nor retained.
//
// Records are bucketed by (policy, bound context, user) when they are
// retained, so a history query costs the size of one bucket. That holds
// because every bound context the algorithm queries is its policy's
// context with "!" replaced: a record is within it exactly when it
// matches the policy and binds to the same instance.

type mPriv struct{ op, target string }

type mComp struct{ typ, val string }

type mmerRule struct {
	roles []string
	m     int
}

type mmepRule struct {
	privs []mPriv
	m     int
}

type mPolicy struct {
	ctx         []mComp
	first, last *mPriv
	mmer        []mmerRule
	mmep        []mmepRule
}

// mRecord is the model's retained decision. Only the fields the
// algorithm consults are kept.
type mRecord struct {
	roles []string
	priv  mPriv
	alive bool
	// keys are the (policy, bound) buckets the record sits in.
	keys []bucketKey
}

type bucketKey struct {
	policy int
	bound  string
}

type bucket struct {
	live   int
	byUser map[string][]*mRecord
}

// Model is the reference state: the RBAC grants, the MSoD policies and
// the retained records they have produced.
type Model struct {
	permits  map[string]map[mPriv]bool // role (with inherited grants) -> privileges
	policies []mPolicy
	buckets  map[bucketKey]*bucket
	live     int
	// purgedBy counts, per user, the records the last committed
	// decision purged.
	purgedBy map[string]int
}

// mDecision is the model's answer to one request.
type mDecision struct {
	allowed  bool
	phase    string // "rbac", "msod" or "granted"
	recorded int
	purged   int
	// started is set when the grant started a FirstStep-gated context
	// and ended when it terminated a context (a last step).
	started, ended bool
}

func newModel(permits map[string][]mPriv, policies []mPolicy) *Model {
	m := &Model{
		permits:  make(map[string]map[mPriv]bool),
		policies: policies,
		buckets:  make(map[bucketKey]*bucket),
		purgedBy: make(map[string]int),
	}
	for role, privs := range permits {
		set := make(map[mPriv]bool)
		for _, p := range privs {
			set[p] = true
		}
		m.permits[role] = set
	}
	return m
}

// parseInstance splits "T1=V1, T2=V2" into components.
func parseInstance(s string) []mComp {
	var out []mComp
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		t, v, _ := strings.Cut(part, "=")
		out = append(out, mComp{strings.TrimSpace(t), strings.TrimSpace(v)})
	}
	return out
}

// bind reports whether the instance is equal or subordinate to the
// policy context and, if so, the policy context with each "!" replaced
// by the instance's value.
func bind(policy, inst []mComp) (string, bool) {
	if len(inst) < len(policy) {
		return "", false
	}
	var b strings.Builder
	for i, pc := range policy {
		ic := inst[i]
		if ic.typ != pc.typ {
			return "", false
		}
		v := pc.val
		switch v {
		case "*":
		case "!":
			v = ic.val
		default:
			if v != ic.val {
				return "", false
			}
		}
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(pc.typ + "=" + v)
	}
	return b.String(), true
}

func (m *Model) permitted(roles []string, p mPriv) bool {
	for _, r := range roles {
		if m.permits[r][p] {
			return true
		}
	}
	return false
}

func (m *Model) bucket(k bucketKey) *bucket {
	b := m.buckets[k]
	if b == nil {
		b = &bucket{byUser: make(map[string][]*mRecord)}
		m.buckets[k] = b
	}
	return b
}

// retain stores one record in the bucket of every policy it matches.
func (m *Model) retain(user string, roles []string, p mPriv, inst string) {
	comps := parseInstance(inst)
	r := &mRecord{roles: roles, priv: p, alive: true}
	for pi := range m.policies {
		bound, ok := bind(m.policies[pi].ctx, comps)
		if !ok {
			continue
		}
		k := bucketKey{pi, bound}
		r.keys = append(r.keys, k)
		b := m.bucket(k)
		b.live++
		b.byUser[user] = append(b.byUser[user], r)
	}
	m.live++
}

// Preload adds history as if it had been granted earlier.
func (m *Model) Preload(user string, roles []string, op, target, inst string) {
	m.retain(user, roles, mPriv{op, target}, inst)
}

// purge terminates the bound context of policy pi: every record within
// it goes, from every bucket it sits in.
func (m *Model) purge(k bucketKey) int {
	b := m.buckets[k]
	if b == nil {
		return 0
	}
	n := 0
	for user, recs := range b.byUser {
		for _, r := range recs {
			if !r.alive {
				continue
			}
			r.alive = false
			n++
			m.purgedBy[user]++
			m.live--
			for _, ok := range r.keys {
				if ob := m.buckets[ok]; ob != nil {
					ob.live--
				}
			}
		}
	}
	delete(m.buckets, k)
	// Buckets of other policies may still list the dead records; they
	// skip them and are dropped once empty.
	for _, recs := range b.byUser {
		for _, r := range recs {
			for _, ok := range r.keys {
				if ob := m.buckets[ok]; ob != nil && ob.live == 0 {
					delete(m.buckets, ok)
				}
			}
		}
	}
	return n
}

func (m *Model) userRecords(k bucketKey, user string) []*mRecord {
	if b := m.buckets[k]; b != nil {
		return b.byUser[user]
	}
	return nil
}

func hasRole(roles []string, role string) bool {
	for _, r := range roles {
		if r == role {
			return true
		}
	}
	return false
}

// Decide answers one request and, on a grant, applies its effect on
// the retained records: the algorithm of §4.2, steps 1 to 8.
func (m *Model) Decide(user string, roles []string, op, target, inst string) mDecision {
	return m.decide(user, roles, op, target, inst, true)
}

// Peek answers like Decide without changing the retained records: the
// advisory answer.
func (m *Model) Peek(user string, roles []string, op, target, inst string) mDecision {
	return m.decide(user, roles, op, target, inst, false)
}

func (m *Model) decide(user string, roles []string, op, target, inst string, commit bool) mDecision {
	p := mPriv{op, target}
	if !m.permitted(roles, p) {
		return mDecision{phase: "rbac"}
	}
	comps := parseInstance(inst)
	type pending struct {
		key     bucketKey
		purge   bool
		start   bool
		records [][]string // roles of each record to retain
	}
	var acts []pending
	// Step 1: every policy whose context the instance falls within.
	for pi := range m.policies {
		pol := &m.policies[pi]
		bound, ok := bind(pol.ctx, comps)
		if !ok {
			continue
		}
		k := bucketKey{pi, bound}
		isLast := pol.last != nil && *pol.last == p
		// Step 3: has the bound context any retained history?
		active := m.buckets[k] != nil && m.buckets[k].live > 0
		if !active {
			// Step 4: only the first step (or any operation, when the
			// policy names none) starts the context.
			if pol.first == nil || *pol.first == p {
				if isLast {
					acts = append(acts, pending{key: k, purge: true})
				} else {
					acts = append(acts, pending{key: k, start: pol.first != nil, records: [][]string{roles}})
				}
			}
			continue
		}
		hist := m.userRecords(k, user)
		var recs [][]string
		// Step 5: MMER — the user may not accumulate m of the roles.
		for _, rule := range pol.mmer {
			var matched []string
			held := 0
			for _, role := range rule.roles {
				if hasRole(roles, role) {
					matched = append(matched, role)
					continue
				}
				for _, r := range hist {
					if r.alive && hasRole(r.roles, role) {
						held++
						break
					}
				}
			}
			if len(matched) == 0 {
				continue
			}
			if held+len(matched) >= rule.m {
				return mDecision{phase: "msod"}
			}
			for _, role := range matched {
				recs = append(recs, []string{role})
			}
		}
		// Step 6: MMEP — the rule's privileges form a multiset; this
		// request takes one position of its own privilege, and each
		// other position is filled by a distinct earlier grant.
		for _, rule := range pol.mmep {
			positions := make(map[mPriv]int)
			mine := false
			for _, q := range rule.privs {
				if q == p && !mine {
					mine = true
					continue
				}
				positions[q]++
			}
			if !mine {
				continue
			}
			held := 0
			for q, n := range positions {
				c := 0
				for _, r := range hist {
					if r.alive && r.priv == q {
						c++
					}
				}
				if c > n {
					c = n
				}
				held += c
			}
			if held+1 >= rule.m {
				return mDecision{phase: "msod"}
			}
			recs = append(recs, roles)
		}
		// Step 7: a granted last step terminates the bound context.
		if isLast {
			acts = append(acts, pending{key: k, purge: true})
		} else {
			acts = append(acts, pending{key: k, records: recs})
		}
	}
	// Every matched policy granted: apply the effects in policy order.
	dec := mDecision{allowed: true, phase: "granted"}
	if commit {
		clear(m.purgedBy)
	}
	for _, a := range acts {
		dec.started = dec.started || a.start
		if a.purge {
			dec.ended = true
			if commit {
				dec.purged += m.purge(a.key)
			}
			continue
		}
		for _, rr := range a.records {
			if commit {
				m.retain(user, rr, p, inst)
			}
			dec.recorded++
		}
	}
	return dec
}

// Live is the number of retained records.
func (m *Model) Live() int { return m.live }

// PurgedBy returns, per user, the records the last committed decision
// purged. The map is reused by the next decision.
func (m *Model) PurgedBy() map[string]int { return m.purgedBy }

// LiveBy counts the retained records by the group each record's user
// falls in.
func (m *Model) LiveBy(group func(user string) string) map[string]int {
	out := make(map[string]int)
	seen := make(map[*mRecord]bool)
	for _, b := range m.buckets {
		for u, recs := range b.byUser {
			for _, r := range recs {
				if r.alive && !seen[r] {
					seen[r] = true
					out[group(u)]++
				}
			}
		}
	}
	return out
}

// The benchmark's policies, stated as the paper states them.
var (
	privHandleCash  = mPriv{"HandleCash", "till"}
	privAudit       = mPriv{"Audit", "ledger"}
	privCommitAudit = mPriv{"CommitAudit", "audit"}
	privEnter       = mPriv{"Enter", "building"}
	privPrepare     = mPriv{"prepareCheck", "http://www.myTaxOffice.com/Check"}
	privConfirm     = mPriv{"confirmCheck", "http://secret.location.com/audit"}
	privApprove     = mPriv{"approve/disapproveCheck", "http://www.myTaxOffice.com/Check"}
	privCombine     = mPriv{"combineResults", "http://secret.location.com/results"}
)

// bankPolicy is Example 1: a user may not be both Teller and Auditor
// in one audit period across all branches; committing the audit ends
// the period.
func bankPolicy() mPolicy {
	return mPolicy{
		ctx:  []mComp{{"Branch", "*"}, {"Period", "!"}},
		last: &privCommitAudit,
		mmer: []mmerRule{{roles: []string{"Teller", "Auditor"}, m: 2}},
	}
}

// taxPolicy is Example 2: per refund process, whoever prepares the
// check may not confirm it, and no manager may approve twice or both
// approve and combine the results.
func taxPolicy() mPolicy {
	return mPolicy{
		ctx:   []mComp{{"TaxOffice", "!"}, {"taxRefundProcess", "!"}},
		first: &privPrepare,
		last:  &privConfirm,
		mmep: []mmepRule{
			{privs: []mPriv{privPrepare, privConfirm}, m: 2},
			{privs: []mPriv{privApprove, privApprove, privCombine}, m: 2},
		},
	}
}

var (
	bankPermits = map[string][]mPriv{
		"Employee": {privEnter},
		"Teller":   {privEnter, privHandleCash},
		"Auditor":  {privEnter, privAudit, privCommitAudit},
	}
	taxPermits = map[string][]mPriv{
		"Clerk":   {privPrepare, privConfirm},
		"Manager": {privApprove, privCombine},
	}
)

func mergePermits(sets ...map[string][]mPriv) map[string][]mPriv {
	out := make(map[string][]mPriv)
	for _, s := range sets {
		for r, ps := range s {
			out[r] = append(out[r], ps...)
		}
	}
	return out
}

// newModelFor returns the model of the named workload's policy
// document.
func newModelFor(workload string) (*Model, error) {
	switch workload {
	case wlEmbedded:
		return newModel(bankPermits, []mPolicy{bankPolicy()}), nil
	case wlCluster:
		return newModel(mergePermits(bankPermits, taxPermits), []mPolicy{bankPolicy(), taxPolicy()}), nil
	case wlDurable:
		return newModel(taxPermits, []mPolicy{taxPolicy()}), nil
	}
	return nil, fmt.Errorf("no model for workload %q", workload)
}

// exampleStep is one decision of the paper's examples with the answer
// the paper gives and the retained-record count it leaves.
type exampleStep struct {
	user    string
	roles   []string
	priv    mPriv
	inst    string
	allowed bool
	live    int
}

// paperExamples are the decisions of Example 1 (bank) and Example 2
// (tax refund) as the paper states them.
func paperExamples() map[string][]exampleStep {
	teller, auditor := []string{"Teller"}, []string{"Auditor"}
	clerk, manager := []string{"Clerk"}, []string{"Manager"}
	const p1 = "TaxOffice=Kent, taxRefundProcess=1"
	const p2 = "TaxOffice=Kent, taxRefundProcess=2"
	return map[string][]exampleStep{
		wlEmbedded: {
			{"alice", teller, privHandleCash, "Branch=York, Period=2006", true, 1},
			// Same period, another branch: the period binds, the branch
			// does not.
			{"alice", auditor, privAudit, "Branch=Leeds, Period=2006", false, 1},
			{"alice", auditor, privAudit, "Branch=Leeds, Period=2007", true, 2},
			{"bob", auditor, privAudit, "Branch=York, Period=2006", true, 3},
			{"bob", teller, privHandleCash, "Branch=York, Period=2006", false, 3},
			// RBAC: a teller holds no audit privilege at all.
			{"carol", teller, privAudit, "Branch=York, Period=2006", false, 3},
			// The last step purges every branch's records of 2006.
			{"bob", auditor, privCommitAudit, "Branch=Hull, Period=2006", true, 1},
			{"alice", auditor, privAudit, "Branch=York, Period=2006", true, 2},
		},
		wlDurable: {
			// Not yet started: granted, neither constrained nor retained.
			{"mike", manager, privApprove, p1, true, 0},
			{"mike", manager, privApprove, p1, true, 0},
			{"carl", clerk, privPrepare, p1, true, 1},
			{"mike", manager, privApprove, p1, true, 2},
			{"mike", manager, privApprove, p1, false, 2},
			{"nina", manager, privApprove, p1, true, 3},
			{"mike", manager, privCombine, p1, false, 3},
			{"olga", manager, privCombine, p1, true, 4},
			{"carl", clerk, privConfirm, p1, false, 4},
			// Another instance is independent of the first.
			{"carl", clerk, privPrepare, p2, true, 5},
			{"mike", manager, privApprove, p2, true, 6},
			{"dora", clerk, privConfirm, p1, true, 2},
			// Instance 1 is over: its history is gone.
			{"mike", manager, privApprove, p1, true, 2},
			{"carl", clerk, privConfirm, p2, false, 2},
		},
	}
}

func replayExample(m *Model, steps []exampleStep) error {
	for i, s := range steps {
		d := m.Decide(s.user, s.roles, s.priv.op, s.priv.target, s.inst)
		if d.allowed != s.allowed {
			return fmt.Errorf("step %d (%s %s in %q): allowed=%v, want %v", i, s.user, s.priv.op, s.inst, d.allowed, s.allowed)
		}
		if m.Live() != s.live {
			return fmt.Errorf("step %d: %d records retained, want %d", i, m.Live(), s.live)
		}
	}
	return nil
}

// checkModel replays the paper's examples; a run refuses to start if
// the model disagrees with the paper.
func checkModel() error {
	for wl, steps := range paperExamples() {
		m, err := newModelFor(wl)
		if err != nil {
			return err
		}
		if err := replayExample(m, steps); err != nil {
			return fmt.Errorf("%s: %w", wl, err)
		}
	}
	return nil
}

// HottestUser returns the user with the most retained records.
func (m *Model) HottestUser() string {
	count := make(map[string]int)
	for _, b := range m.buckets {
		for u, recs := range b.byUser {
			for _, r := range recs {
				if r.alive {
					count[u]++
				}
			}
		}
	}
	best, n := "", -1
	for u, c := range count {
		if c > n || (c == n && u < best) {
			best, n = u, c
		}
	}
	return best
}
