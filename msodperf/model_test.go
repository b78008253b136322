package main

import "testing"

func TestModelPaperExamples(t *testing.T) {
	if err := checkModel(); err != nil {
		t.Fatal(err)
	}
}

// A privilege listed three times in an MMEP rule of cardinality 3 takes
// three positions: multiset counting allows two executions, not one.
func TestModelMultisetCounting(t *testing.T) {
	p := mPriv{"sign", "doc"}
	m := newModel(map[string][]mPriv{"R": {p}}, []mPolicy{{
		ctx:  []mComp{{"Case", "!"}},
		mmep: []mmepRule{{privs: []mPriv{p, p, p}, m: 3}},
	}})
	err := replayExample(m, []exampleStep{
		{"u", []string{"R"}, p, "Case=1", true, 1},
		{"u", []string{"R"}, p, "Case=1", true, 2},
		{"u", []string{"R"}, p, "Case=1", false, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The examples must fail when the model is wrong: a bank model without
// its last step keeps 2006's history and so denies the final step.
func TestModelExamplesDetectAMissingLastStep(t *testing.T) {
	pol := bankPolicy()
	pol.last = nil
	m := newModel(bankPermits, []mPolicy{pol})
	if err := replayExample(m, paperExamples()[wlEmbedded]); err == nil {
		t.Fatal("a model without the last step replayed Example 1 cleanly")
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(v)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// A process started on shard s1 and ended on s2: s2 reports its own
// users' records plus its activation marker; s1 keeps the rest.
func TestShardViewSplitsAPurge(t *testing.T) {
	m, _ := newModelFor(wlCluster)
	v := newShardView([]string{"s1", "s2"}, map[string]string{
		"carl": "s1", "mike": "s1", "nina": "s2", "dora": "s2",
	})
	const inst = "TaxOffice=Kent, taxRefundProcess=1"
	steps := []op{
		{user: "carl", roles: rolesClerk, priv: privPrepare, inst: inst},
		{user: "mike", roles: rolesManager, priv: privApprove, inst: inst},
		{user: "nina", roles: rolesManager, priv: privApprove, inst: inst},
		{user: "dora", roles: rolesClerk, priv: privConfirm, inst: inst},
	}
	var purged int
	for _, o := range steps {
		want := m.Decide(o.user, o.roles, o.priv.op, o.priv.target, o.inst)
		if !want.allowed {
			t.Fatalf("%s %s denied", o.user, o.priv.op)
		}
		purged = v.apply(m, &o, want)
	}
	if purged != 2 {
		t.Errorf("s2 purges %d records, want 2 (nina's approval and the marker)", purged)
	}
	if v.keptByPeer["s1"] != 2 || v.keptByPeer["s2"] != 0 {
		t.Errorf("left by peer purges = %v, want s1:2", v.keptByPeer)
	}
	if len(v.started) != 0 {
		t.Errorf("ended process still listed as started: %v", v.started)
	}
}
