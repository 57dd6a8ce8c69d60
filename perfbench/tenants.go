package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"

	"rta/internal/admission"
	"rta/internal/analysis"
	"rta/internal/benchsys"
	"rta/internal/model"
	"rta/internal/priority"
	"rta/internal/serve"
	"rta/internal/workload"
)

type opKind int

const (
	opAdmit  opKind = iota // admit a job that may be granted
	opProbe                // admit a job that must be rejected
	opRemove               // remove an admitted job
	opBounds               // read the tenant's bounds
)

func (k opKind) decision() bool { return k != opBounds }

func (k opKind) String() string { return [...]string{"admit", "probe", "remove", "bounds"}[k] }

// request is one generated HTTP request with what the mirrors of the
// traced replay need to repeat it.
type request struct {
	Kind   opKind
	Method string
	Path   string
	Body   []byte
	Job    *model.Job // admit, probe
	Name   string     // remove
}

// tenant generates one tenant's requests from its own seeded state and
// checks each reply. Next and Observe alternate: every request is
// observed before the next is drawn, so a seed fixes the whole sequence.
type tenant interface {
	ID() string
	Procs() []model.Processor
	// Preload is the set-up traffic, sent before the measured window.
	Preload() []request
	// Next draws the next request; decisionsOnly leaves out reads.
	Next(decisionsOnly bool) request
	// Observe applies a 200 reply to the client's view and reports a
	// reply the workload's contract forbids (a denied re-admit, a granted
	// probe) as an error.
	Observe(r request, body []byte) error
	// Admitted is the client's view of the admitted set, in admission
	// order.
	Admitted() []model.Job
}

func admitReq(tid string, kind opKind, job *model.Job) request {
	body, err := json.Marshal(job)
	if err != nil {
		panic(err) // model jobs always marshal
	}
	return request{Kind: kind, Method: http.MethodPost, Path: "/v1/tenants/" + tid + "/admit", Body: body, Job: job}
}

func removeReq(tid, name string) request {
	body, _ := json.Marshal(map[string]string{"name": name})
	return request{Kind: opRemove, Method: http.MethodPost, Path: "/v1/tenants/" + tid + "/remove", Body: body, Name: name}
}

func boundsReq(tid string) request {
	return request{Kind: opBounds, Method: http.MethodGet, Path: "/v1/tenants/" + tid + "/bounds"}
}

func specBody(procs []model.Processor) []byte {
	body, err := json.Marshal(&model.System{Procs: procs})
	if err != nil {
		panic(err)
	}
	return body
}

// verdict decodes an admit or remove reply.
type verdict struct {
	Admitted bool `json:"admitted"`
	Removed  bool `json:"removed"`
}

// boundsDoc is the /bounds reply.
type boundsDoc struct {
	Jobs []jobBound `json:"jobs"`
}

type jobBound struct {
	Name  string      `json:"name"`
	Bound model.Ticks `json:"bound"`
}

// churnQueryShare is the share of churn-workload requests that read
// bounds; the rest cycle remove, re-admit, probe.
const churnQueryShare = 0.25

// churnTenant holds the 50x8 SPNP benchsys shop and churns its last few
// jobs in turn: remove one, re-admit it (must be granted), then send a
// deadline-1 copy of it as a probe (must be rejected). The seed decides
// where the reads fall; the decisions cycle in a fixed order, so every
// seed offers the same mix of cheap and costly cones.
type churnTenant struct {
	id       string
	shop     *model.System
	rng      *rand.Rand
	admitted []string
	cycle    int    // completed remove, re-admit, probe cycles
	pos      int    // cycle position: 0 remove, 1 re-admit, 2 probe
	out      string // removed job awaiting re-admission
}

// churnTail is how many of the last jobs the churn cycles through.
const churnTail = 3

// largeShop is the named 50x8 SPNP shop both churn tenants share; it is
// only read.
var largeShop = sync.OnceValue(func() *model.System {
	sys := benchsys.Large(benchsys.Jobs, benchsys.Hops, benchsys.Instances, model.SPNP)
	for k := range sys.Jobs {
		sys.Jobs[k].Name = fmt.Sprintf("J%02d", k)
	}
	return sys
})

func newChurnTenants(seed int64) ([]tenant, error) {
	out := make([]tenant, 2)
	for i := range out {
		out[i] = &churnTenant{id: fmt.Sprintf("t%d", i), shop: largeShop(), rng: rand.New(rand.NewSource(seed*7919 + int64(i)))}
	}
	return out, nil
}

func (t *churnTenant) ID() string               { return t.id }
func (t *churnTenant) Procs() []model.Processor { return t.shop.Procs }

func (t *churnTenant) job(name string) *model.Job {
	for k := range t.shop.Jobs {
		if t.shop.Jobs[k].Name == name {
			return &t.shop.Jobs[k]
		}
	}
	panic("unknown job " + name)
}

func (t *churnTenant) Preload() []request {
	out := make([]request, len(t.shop.Jobs))
	for k := range t.shop.Jobs {
		out[k] = admitReq(t.id, opAdmit, &t.shop.Jobs[k])
	}
	return out
}

func (t *churnTenant) Next(decisionsOnly bool) request {
	if !decisionsOnly && t.rng.Float64() < churnQueryShare {
		return boundsReq(t.id)
	}
	pick := t.shop.Jobs[len(t.shop.Jobs)-1-t.cycle%churnTail]
	switch t.pos {
	case 0:
		return removeReq(t.id, pick.Name)
	case 1:
		return admitReq(t.id, opAdmit, t.job(t.out))
	default:
		probe := pick
		probe.Name = "probe"
		probe.Deadline = 1
		return admitReq(t.id, opProbe, &probe)
	}
}

func (t *churnTenant) Observe(r request, body []byte) error {
	var v verdict
	if r.Kind != opBounds {
		if err := json.Unmarshal(body, &v); err != nil {
			return fmt.Errorf("%s %s: %w", t.id, r.Kind, err)
		}
	}
	switch r.Kind {
	case opRemove:
		if !v.Removed {
			return fmt.Errorf("%s: remove %s: job was not admitted", t.id, r.Name)
		}
		t.admitted = without(t.admitted, r.Name)
		t.out, t.pos = r.Name, 1
	case opAdmit:
		if !v.Admitted {
			return fmt.Errorf("%s: admit %s denied", t.id, r.Job.Name)
		}
		t.admitted = append(t.admitted, r.Job.Name)
		if r.Job.Name == t.out { // the cycle's re-admit, not preload
			t.out, t.pos = "", 2
		}
	case opProbe:
		if v.Admitted {
			return fmt.Errorf("%s: deadline-1 probe granted", t.id)
		}
		t.pos = 0
		t.cycle++
	}
	return nil
}

func (t *churnTenant) Admitted() []model.Job {
	out := make([]model.Job, len(t.admitted))
	for i, n := range t.admitted {
		out[i] = *t.job(n)
	}
	return out
}

func without(names []string, name string) []string {
	out := names[:0]
	for _, n := range names {
		if n != name {
			out = append(out, n)
		}
	}
	return out
}

// durableTenant is one small tenant of the durable workload: a
// workload.Generate job shop drawn exactly as serve.DefaultLoad draws its
// tenants (SPP, 10-job pool, utilization 0.7, bursty releases, seed 1),
// churned with a 40/20/40 admit/remove/read mix drawn from the workload
// seed. The shops stay fixed so seeds vary the traffic, not the size of
// the systems decided on. Denied admits are normal here.
type durableTenant struct {
	id       string
	procs    []model.Processor
	pool     []model.Job
	rng      *rand.Rand
	admitted []int // pool indices, admission order
	free     []int
}

// durablePreload is how many pool jobs each tenant offers during set-up.
const durablePreload = 5

func newDurableTenants(seed int64) ([]tenant, error) {
	out := make([]tenant, 8)
	for i := range out {
		cfg := workload.Default
		cfg.Jobs = serve.DefaultLoad.PoolJobs
		cfg.Arrival = workload.Bursty
		cfg.BurstSize = serve.DefaultLoad.BurstSize
		cfg.Utilization = 0.7
		draw, err := workload.Generate(rand.New(rand.NewSource(serve.DefaultLoad.Seed+int64(i)*7919)), cfg)
		if err != nil {
			return nil, fmt.Errorf("durable tenant %d: %w", i, err)
		}
		t := &durableTenant{id: fmt.Sprintf("d%d", i), procs: draw.System.Procs, pool: draw.System.Jobs,
			rng: rand.New(rand.NewSource(seed*7919 + int64(i)))}
		for k := range t.pool {
			t.pool[k].Name = fmt.Sprintf("job%02d", k)
			t.free = append(t.free, k)
		}
		out[i] = t
	}
	return out, nil
}

func (t *durableTenant) ID() string               { return t.id }
func (t *durableTenant) Procs() []model.Processor { return t.procs }

func (t *durableTenant) Preload() []request {
	out := make([]request, durablePreload)
	for k := range out {
		out[k] = admitReq(t.id, opAdmit, &t.pool[k])
	}
	return out
}

func (t *durableTenant) Next(decisionsOnly bool) request {
	p := t.rng.Float64()
	if decisionsOnly {
		p *= 0.6
	}
	switch {
	case len(t.admitted) == 0 || (p < 0.4 && len(t.free) > 0):
		return admitReq(t.id, opAdmit, &t.pool[t.free[t.rng.Intn(len(t.free))]])
	case p < 0.6:
		return removeReq(t.id, t.pool[t.admitted[t.rng.Intn(len(t.admitted))]].Name)
	default:
		return boundsReq(t.id)
	}
}

func (t *durableTenant) index(name string) int {
	for k := range t.pool {
		if t.pool[k].Name == name {
			return k
		}
	}
	return -1
}

func (t *durableTenant) Observe(r request, body []byte) error {
	if r.Kind == opBounds {
		return nil
	}
	var v verdict
	if err := json.Unmarshal(body, &v); err != nil {
		return fmt.Errorf("%s %s: %w", t.id, r.Kind, err)
	}
	switch {
	case r.Kind == opAdmit && v.Admitted:
		k := t.index(r.Job.Name)
		t.free = withoutIdx(t.free, k)
		t.admitted = append(t.admitted, k)
	case r.Kind == opRemove:
		if !v.Removed {
			return fmt.Errorf("%s: remove %s: job was not admitted", t.id, r.Name)
		}
		k := t.index(r.Name)
		t.admitted = withoutIdx(t.admitted, k)
		t.free = append(t.free, k)
	}
	return nil
}

func (t *durableTenant) Admitted() []model.Job {
	out := make([]model.Job, len(t.admitted))
	for i, k := range t.admitted {
		out[i] = t.pool[k]
	}
	return out
}

func withoutIdx(s []int, k int) []int {
	out := s[:0]
	for _, x := range s {
		if x != k {
			out = append(out, x)
		}
	}
	return out
}

// coldBounds is the reference for a tenant's /bounds: a cold
// analysis.AnalyzeOpts of the admitted set, with the deadline-monotonic
// reassignment applied first under that policy.
func coldBounds(procs []model.Processor, jobs []model.Job, policy admission.PriorityPolicy) (boundsDoc, error) {
	var doc boundsDoc
	if len(jobs) == 0 {
		return doc, nil
	}
	sys := (&model.System{Procs: procs, Jobs: jobs}).Clone()
	if policy == admission.DeadlineMonotonic {
		priority.RelativeDeadlineMonotonic(sys)
	}
	res, err := analysis.AnalyzeOpts(sys, analysis.Options{})
	if err != nil {
		return doc, err
	}
	doc.Jobs = make([]jobBound, len(jobs))
	for k := range jobs {
		doc.Jobs[k].Name = jobs[k].Name
		doc.Jobs[k].Bound = res.WCRTSum[k]
	}
	return doc, nil
}

// checkBounds compares a /bounds reply with the cold reference.
func checkBounds(tid string, body []byte, want boundsDoc) error {
	var got boundsDoc
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("%s bounds: %w", tid, err)
	}
	if len(got.Jobs) != len(want.Jobs) {
		return fmt.Errorf("%s: %d bounds served, %d jobs admitted", tid, len(got.Jobs), len(want.Jobs))
	}
	for k := range got.Jobs {
		if got.Jobs[k] != want.Jobs[k] {
			return fmt.Errorf("%s: served %s bound %d, cold analysis %s bound %d", tid,
				got.Jobs[k].Name, got.Jobs[k].Bound, want.Jobs[k].Name, want.Jobs[k].Bound)
		}
	}
	return nil
}
