package main

import "fmt"

// remote derives the values of a workload whose program runs in
// daemons: the first nShards edges are msodd shards, any further edge
// is msodgw.
type remote struct {
	out        *outcome
	answered   float64
	serverReqs float64 // requests the shards timed, from their histograms
}

const stageSum = `msod_stage_duration_seconds_sum{stage="%s"}`

func remoteValues(out *outcome, base, end []procEdge, nShards int, answered float64) *remote {
	r := &remote{out: out, answered: answered}
	v := out.values
	var cpu, mallocs, bytes, heap, shardCPU, shardMallocs, shardBytes, shardHeap, wbytes, gcPause float64
	for i := range end {
		d := func(name string) float64 { return end[i].counters[name] - base[i].counters[name] }
		c := end[i].cpu - base[i].cpu
		m := end[i].mem.mallocs - base[i].mem.mallocs
		b := end[i].mem.totalAlloc - base[i].mem.totalAlloc
		cpu += c
		mallocs += m
		bytes += b
		heap += end[i].mem.heapAlloc
		if i < nShards {
			shardCPU += c
			shardMallocs += m
			shardBytes += b
			shardHeap += end[i].mem.heapAlloc
			wbytes += end[i].wbytes - base[i].wbytes
			gcPause += d("msod_go_gc_pause_seconds_sum")
			r.serverReqs += d("msod_decision_duration_seconds_count")
		}
	}
	sum := func(name string) float64 {
		t := 0.0
		for i := 0; i < nShards; i++ {
			t += end[i].counters[name] - base[i].counters[name]
		}
		return t
	}
	perReq := func(seconds float64) float64 { return seconds * 1e6 / r.serverReqs }
	out.record["daemon_cpu_s"] = cpu
	v["allocs_per_decision"] = mallocs / answered
	v["bytes_per_decision"] = bytes / answered
	// The generator holds only the benchmark's own logs besides its
	// clients, so the live heap is the daemons'.
	v["heap_live_bytes"] = heap
	v["server.cpu_us_per_decision"] = shardCPU * 1e6 / answered
	v["server.allocs_per_decision"] = shardMallocs / answered
	v["server.bytes_per_decision"] = shardBytes / answered
	v["server.heap_live_bytes"] = shardHeap
	v["server.gc_pause_us_per_decision"] = gcPause * 1e6 / answered
	v["disk.write_bytes_per_decision"] = wbytes / answered
	v["server.decide_us"] = perReq(sum("msod_decision_duration_seconds_sum"))
	msodStage := perReq(sum(fmt.Sprintf(stageSum, "msod")))
	v["server.stage.cvs_us"] = perReq(sum(fmt.Sprintf(stageSum, "cvs")))
	v["server.stage.rbac_us"] = perReq(sum(fmt.Sprintf(stageSum, "rbac")))
	v["server.stage.store_us"] = perReq(sum(fmt.Sprintf(stageSum, "store")))
	v["server.stage.audit_us"] = perReq(sum(fmt.Sprintf(stageSum, "audit")))
	v["server.stage.msod_self_us"] = msodStage - v["server.stage.store_us"]
	v["server.stage.other_us"] = v["server.decide_us"] -
		(v["server.stage.cvs_us"] + v["server.stage.rbac_us"] + msodStage + v["server.stage.audit_us"])
	out.record["server_requests"] = r.serverReqs
	return r
}

// self adds the generator process's own counters.
func (r *remote) self(cpu, gcCPU, mallocs, bytes float64) {
	v := r.out.values
	v["allocs_per_decision"] += mallocs / r.answered
	v["bytes_per_decision"] += bytes / r.answered
	v["client.cpu_us_per_decision"] = cpu * 1e6 / r.answered
	v["runtime.gc_cpu_us_per_decision"] = gcCPU * 1e6 / r.answered
}

// budget splits the mean client round trip into the server's stages,
// the server's unattributed rest, and the remainder outside the
// server's timer (JSON, HTTP, both hops, the gateway, the per-decision
// sinks). The parts add up to the round trip by construction; a
// negative part means the server's timers disagree with the client's.
func (r *remote) budget(rttUS float64) {
	v := r.out.values
	v["client.rtt_us"] = rttUS
	v["budget.remainder_us"] = rttUS - v["server.decide_us"]
	parts := []string{"server.stage.cvs_us", "server.stage.rbac_us", "server.stage.msod_self_us",
		"server.stage.store_us", "server.stage.audit_us", "server.stage.other_us", "budget.remainder_us"}
	b := map[string]float64{"client.rtt_us": rttUS}
	total := 0.0
	for _, p := range parts {
		b[p] = v[p]
		total += v[p]
		if v[p] < 0 {
			r.out.mismatch("budget part %s is negative: %.3f us", p, v[p])
		}
	}
	b["sum_of_parts_us"] = total
	r.out.record["budget"] = b
	if r.serverReqs != r.answered {
		r.out.mismatch("the shards timed %.0f requests, the clients counted %.0f answers", r.serverReqs, r.answered)
	}
}

// cpuOf returns a reader of the CPU seconds used by this process and
// the daemons together.
func cpuOf(ds []*daemon) func() float64 {
	return func() float64 {
		t := selfCPU()
		for _, d := range ds {
			c, _ := procCPU(d.cmd.Process.Pid)
			t += c
		}
		return t
	}
}

func sumCounter(edges []procEdge, name string) float64 {
	t := 0.0
	for _, e := range edges {
		t += e.counters[name]
	}
	return t
}
