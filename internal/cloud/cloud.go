// Package cloud simulates a cloud provider offering preemptible (spot) and
// on-demand GPU instances, in the style of AWS g4dn: four GPUs per
// instance, a grace period between preemption notice and termination, an
// acquisition delay for new instances, and per-second billing at different
// spot and on-demand prices.
//
// Spot availability is driven by replaying a trace.Trace: the fleet holds
// exactly the offered spot instances (the paper's N_t), so preemptions and
// acquisitions arrive as notifications exactly like the real cloud's.
// On-demand instances are allocated and released dynamically by the serving
// system (Algorithm 1 lines 8/10).
package cloud

import (
	"fmt"
	"math/rand"
	"sort"

	"spotserve/internal/market"
	"spotserve/internal/metrics"
	"spotserve/internal/sim"
	"spotserve/internal/trace"
)

// Kind distinguishes instance markets.
type Kind int

const (
	// Spot instances are cheap but preemptible.
	Spot Kind = iota
	// OnDemand instances are stable but expensive.
	OnDemand
)

func (k Kind) String() string {
	if k == Spot {
		return "spot"
	}
	return "on-demand"
}

// State is the lifecycle state of an instance.
type State int

const (
	// Pending: requested, still provisioning (acquisition delay).
	Pending State = iota
	// Running: ready to host inference engines.
	Running
	// Noticed: received a preemption notice; terminates at Deadline.
	Noticed
	// Terminated: gone; its GPUs are unusable.
	Terminated
)

func (s State) String() string {
	switch s {
	case Pending:
		return "pending"
	case Running:
		return "running"
	case Noticed:
		return "noticed"
	default:
		return "terminated"
	}
}

// GPU is one device slot of an instance.
type GPU struct {
	// ID is globally unique across the simulation.
	ID int64
	// Slot is the device index within the instance.
	Slot int
	// Inst is the owning instance.
	Inst *Instance
}

// Instance is one cloud VM with GPUs.
type Instance struct {
	ID       int64
	Kind     Kind
	State    State
	GPUs     []*GPU
	Launched float64 // when the request was placed
	ReadyAt  float64 // when it became Running (valid once Running)
	// Deadline is the termination time once Noticed.
	Deadline float64
	// Type is the instance class (zero value = legacy homogeneous
	// baseline: speed and memory multipliers of 1).
	Type InstanceType
}

// GPUSpeed returns the per-GPU speed multiplier of the instance's type,
// defaulting to the baseline 1.0 for instances built without a type.
func (i *Instance) GPUSpeed() float64 {
	if i.Type.Speed <= 0 {
		return 1
	}
	return i.Type.Speed
}

// MemScale returns the memory multiplier of the instance's type (1.0 when
// untyped).
func (i *Instance) MemScale() float64 {
	if i.Type.MemScale <= 0 {
		return 1
	}
	return i.Type.MemScale
}

// Alive reports whether the instance still has usable GPUs (Running or in
// its grace period).
func (i *Instance) Alive() bool { return i.State == Running || i.State == Noticed }

func (i *Instance) String() string {
	return fmt.Sprintf("inst%d(%s,%s)", i.ID, i.Kind, i.State)
}

// InstanceType describes one class of instance in a (possibly
// heterogeneous) fleet: its GPU count and the per-GPU speed and memory
// multipliers relative to the baseline T4 testbed.
type InstanceType struct {
	// Name identifies the type, e.g. "g4dn" or "g5-fast".
	Name string
	// GPUs is the device count per instance of this type.
	GPUs int
	// Speed is the per-GPU compute/bandwidth multiplier relative to the
	// baseline (1.0 = T4): pipeline iteration time scales by the slowest
	// member GPU's 1/Speed.
	Speed float64
	// MemScale multiplies memory-dependent budgets (the migration-buffer
	// cap U_max) for instances of this type.
	MemScale float64
	// SpotUSDPerHour / OnDemandUSDPerHour are this type's prices.
	SpotUSDPerHour     float64
	OnDemandUSDPerHour float64
}

// Validate checks one instance type.
func (t InstanceType) Validate() error {
	switch {
	case t.Name == "":
		return fmt.Errorf("cloud: instance type with empty name")
	case t.GPUs <= 0:
		return fmt.Errorf("cloud: type %q: GPUs = %d", t.Name, t.GPUs)
	case t.Speed <= 0:
		return fmt.Errorf("cloud: type %q: speed multiplier %v", t.Name, t.Speed)
	case t.MemScale <= 0:
		return fmt.Errorf("cloud: type %q: memory multiplier %v", t.Name, t.MemScale)
	case t.SpotUSDPerHour < 0 || t.OnDemandUSDPerHour < 0:
		return fmt.Errorf("cloud: type %q: negative price", t.Name)
	}
	return nil
}

// Params configures the simulated provider.
type Params struct {
	GPUsPerInstance int
	// GracePeriod is the notice-to-termination window for spot instances.
	GracePeriod float64
	// AcquireDelay is request-to-Running provisioning time.
	AcquireDelay float64
	// SpotUSDPerHour / OnDemandUSDPerHour are instance prices (the paper
	// quotes 1.9 vs 3.9 USD/h for g4dn.12xlarge).
	SpotUSDPerHour     float64
	OnDemandUSDPerHour float64
	// Seed drives the provider's internal choices (which instance to
	// preempt).
	Seed int64
	// Types, when non-empty, makes the fleet heterogeneous: spot launches
	// cycle through the types in order (deterministically), while
	// on-demand allocations use Types[0]. Empty means one homogeneous
	// implicit type derived from the legacy scalar fields above.
	Types []InstanceType
	// Market, when non-nil, supplies per-type spot price curves: spot
	// instances of a type with a curve bill by integrating that curve
	// piecewise over their lifetime instead of freezing the flat
	// SpotUSDPerHour at readiness. Types without a curve, and all
	// on-demand instances (their price is contractually stable), keep the
	// flat path — which therefore stays bit-identical when no market is
	// configured.
	Market *market.Market
}

// TypeList returns the fleet's instance types: Types when set, otherwise
// the single implicit type encoded by the legacy scalar fields.
func (p Params) TypeList() []InstanceType {
	if len(p.Types) > 0 {
		return p.Types
	}
	return []InstanceType{{
		Name:               "default",
		GPUs:               p.GPUsPerInstance,
		Speed:              1,
		MemScale:           1,
		SpotUSDPerHour:     p.SpotUSDPerHour,
		OnDemandUSDPerHour: p.OnDemandUSDPerHour,
	}}
}

// Validate checks the provider configuration, including the instance-type
// table: a zero grace period (instant reclamation) is legal, a negative one
// is not; acquisition delays may not be negative; every declared type must
// be well-formed and uniquely named.
func (p Params) Validate() error {
	switch {
	case p.GPUsPerInstance <= 0:
		return fmt.Errorf("cloud: GPUsPerInstance = %d", p.GPUsPerInstance)
	case p.GracePeriod < 0:
		return fmt.Errorf("cloud: negative grace period %v", p.GracePeriod)
	case p.AcquireDelay < 0:
		return fmt.Errorf("cloud: negative acquire delay %v", p.AcquireDelay)
	}
	seen := make(map[string]bool, len(p.Types))
	for _, t := range p.Types {
		if err := t.Validate(); err != nil {
			return err
		}
		if seen[t.Name] {
			return fmt.Errorf("cloud: duplicate instance type %q", t.Name)
		}
		seen[t.Name] = true
	}
	if p.Market != nil {
		// Name order, so that of several invalid curves the error always
		// names the same one.
		names := make([]string, 0, len(p.Market.Curves))
		for name := range p.Market.Curves {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if err := p.Market.Curves[name].Validate(); err != nil {
				return fmt.Errorf("cloud: market curve %q: %v", name, err)
			}
		}
	}
	return nil
}

// DefaultParams mirrors the paper's testbed.
func DefaultParams() Params {
	return Params{
		GPUsPerInstance:    4,
		GracePeriod:        30,
		AcquireDelay:       120,
		SpotUSDPerHour:     1.9,
		OnDemandUSDPerHour: 3.9,
		Seed:               1,
	}
}

// Listener receives the cloud's ahead-of-time notifications — the same
// interface the real provider exposes to SpotServe's instance manager.
type Listener interface {
	// InstanceReady fires when a Pending instance becomes Running.
	InstanceReady(inst *Instance)
	// PreemptionNotice fires when a spot instance's grace period starts;
	// the instance terminates at deadline.
	PreemptionNotice(inst *Instance, deadline float64)
	// InstanceTerminated fires when an instance is reclaimed or released.
	InstanceTerminated(inst *Instance)
}

// Cloud is the simulated provider.
type Cloud struct {
	sim      *sim.Simulator
	params   Params
	listener Listener
	rng      *rand.Rand
	meter    *metrics.CostMeter

	nextInstID int64
	nextGPUID  int64
	// instances holds every instance ever created, in ID order.
	instances []*Instance
	// spotLaunches counts spot launches so heterogeneous fleets cycle
	// through the type table deterministically.
	spotLaunches int
	// aliveCache holds the sorted Alive() result between membership
	// changes — the control plane reads the alive set several times per
	// event.
	aliveCache []*Instance
}

// New builds a provider bound to the simulator. The listener may be set
// later with SetListener but must be non-nil before any event fires.
func New(s *sim.Simulator, p Params, l Listener) *Cloud {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &Cloud{
		sim:      s,
		params:   p,
		listener: l,
		rng:      rand.New(rand.NewSource(p.Seed)),
		meter:    metrics.NewCostMeter(s.Now),
	}
}

// SetListener installs the notification sink.
func (c *Cloud) SetListener(l Listener) { c.listener = l }

// Params returns the provider configuration.
func (c *Cloud) Params() Params { return c.params }

// CostUSD returns the total accrued instance cost.
func (c *Cloud) CostUSD() float64 { return c.meter.TotalUSD() }

// SpendUSDPerHour returns the fleet's instantaneous billing rate: the sum
// over alive instances of their current price — the market curve's price
// at now for spot types the configured market prices, the flat type price
// otherwise. The cost-aware autoscaling policies read this to shed
// capacity when spot prices spike.
func (c *Cloud) SpendUSDPerHour() float64 {
	now := c.sim.Now()
	rate := 0.0
	for _, inst := range c.Alive() {
		if curve, ok := c.spotCurve(inst); ok {
			rate += curve.PriceAt(now)
		} else {
			rate += priceOf(inst)
		}
	}
	return rate
}

// newInstance allocates the instance and GPU records for one type.
func (c *Cloud) newInstance(kind Kind, typ InstanceType) *Instance {
	inst := &Instance{
		ID:       c.nextInstID,
		Kind:     kind,
		State:    Pending,
		Launched: c.sim.Now(),
		Type:     typ,
	}
	c.nextInstID++
	for s := 0; s < typ.GPUs; s++ {
		inst.GPUs = append(inst.GPUs, &GPU{ID: c.nextGPUID, Slot: s, Inst: inst})
		c.nextGPUID++
	}
	c.instances = append(c.instances, inst)
	return inst
}

// newSpotInstance creates one spot instance of the rotation's next type.
// The round-robin cursor advances here — atomically with the instance
// record actually coming into existence — so a launch path that peeks the
// type but then fails or rejects the launch can never consume a rotation
// slot and shift every subsequent type assignment (the peek itself is
// side-effect-free via spotTypeAt).
func (c *Cloud) newSpotInstance() *Instance {
	inst := c.newInstance(Spot, c.spotTypeAt(c.spotLaunches))
	c.spotLaunches++
	return inst
}

// spotTypeAt returns the type the i-th spot launch draws, cycling through
// the fleet's type table so heterogeneous trace replays interleave types
// deterministically. Pure: it never advances the rotation.
func (c *Cloud) spotTypeAt(i int) InstanceType {
	types := c.params.TypeList()
	return types[i%len(types)]
}

func priceOf(inst *Instance) float64 {
	if inst.Kind == Spot {
		return inst.Type.SpotUSDPerHour
	}
	return inst.Type.OnDemandUSDPerHour
}

// spotCurve returns the market price curve billing inst, if any: spot
// instances of a type the configured market prices.
func (c *Cloud) spotCurve(inst *Instance) (market.Curve, bool) {
	if c.params.Market == nil || inst.Kind != Spot {
		return market.Curve{}, false
	}
	return c.params.Market.CurveFor(inst.Type.Name)
}

func (c *Cloud) makeReady(inst *Instance) {
	if inst.State != Pending {
		return // preempted while provisioning
	}
	inst.State = Running
	inst.ReadyAt = c.sim.Now()
	c.aliveCache = nil
	if curve, ok := c.spotCurve(inst); ok {
		c.meter.StartVariable(inst.ID, curve.Integrate)
	} else {
		c.meter.Start(inst.ID, priceOf(inst))
	}
	c.listener.InstanceReady(inst)
}

func (c *Cloud) terminate(inst *Instance) {
	if inst.State == Terminated {
		return
	}
	inst.State = Terminated
	c.aliveCache = nil
	c.meter.Stop(inst.ID)
	c.listener.InstanceTerminated(inst)
}

// launchSpot creates spot instances that become Running after delay.
func (c *Cloud) launchSpot(n int, delay float64) {
	for i := 0; i < n; i++ {
		inst := c.newSpotInstance()
		if delay <= 0 {
			c.makeReady(inst)
		} else {
			c.sim.After(delay, func() { c.makeReady(inst) })
		}
	}
}

// preemptSpot issues preemption notices to n random live spot instances.
func (c *Cloud) preemptSpot(n int) {
	victims := c.liveSpot()
	c.rng.Shuffle(len(victims), func(i, j int) {
		victims[i], victims[j] = victims[j], victims[i]
	})
	if n > len(victims) {
		n = len(victims)
	}
	for _, inst := range victims[:n] {
		inst := inst
		if inst.State == Pending {
			// Reclaimed before it ever provisioned.
			c.terminate(inst)
			continue
		}
		inst.State = Noticed
		inst.Deadline = c.sim.Now() + c.params.GracePeriod
		c.listener.PreemptionNotice(inst, inst.Deadline)
		c.sim.At(inst.Deadline, func() { c.terminate(inst) })
	}
}

// liveSpot returns non-terminated spot instances in deterministic ID order
// (excluding ones already under notice).
func (c *Cloud) liveSpot() []*Instance {
	var out []*Instance
	for _, inst := range c.instances {
		if inst.Kind == Spot && (inst.State == Running || inst.State == Pending) {
			out = append(out, inst)
		}
	}
	return out
}

// ReplayTrace schedules the spot fleet to follow tr: the initial count is
// provisioned Running at t=0 (the system starts initialized, as in §6.3),
// later increases arrive after the acquisition delay, and decreases trigger
// grace-period preemption notices at the event time.
func (c *Cloud) ReplayTrace(tr trace.Trace) error {
	if err := tr.Validate(); err != nil {
		return err
	}
	type change struct {
		at      float64
		delta   int
		initial bool
	}
	var changes []change
	prev := 0
	for idx, ev := range tr.Events {
		delta := ev.Count - prev
		prev = ev.Count
		if delta == 0 {
			continue
		}
		if idx == 0 {
			// Initial fleet: ready immediately at t=0.
			changes = append(changes, change{delta: delta, initial: true})
			continue
		}
		changes = append(changes, change{at: ev.At, delta: delta})
	}
	c.sim.Series(len(changes), func(i int) float64 { return changes[i].at }, func(i int) {
		switch ch := changes[i]; {
		case ch.initial:
			c.launchSpot(ch.delta, 0)
		case ch.delta > 0:
			c.launchSpot(ch.delta, c.params.AcquireDelay)
		default:
			c.preemptSpot(-ch.delta)
		}
	})
	return nil
}

// Prealloc provisions n instances of the given kind, Running immediately —
// used to start experiments from an initialized fleet (e.g. the
// on-demand-only baseline of Figure 7).
func (c *Cloud) Prealloc(n int, kind Kind) []*Instance {
	var out []*Instance
	for i := 0; i < n; i++ {
		var inst *Instance
		if kind == Spot {
			inst = c.newSpotInstance()
		} else {
			inst = c.newInstance(kind, c.params.TypeList()[0])
		}
		c.makeReady(inst)
		out = append(out, inst)
	}
	return out
}

// AllocOnDemand requests n on-demand instances of the fleet's primary
// type; they become Running after the acquisition delay. The created
// (Pending) instances are returned.
func (c *Cloud) AllocOnDemand(n int) []*Instance {
	var out []*Instance
	for i := 0; i < n; i++ {
		out = append(out, c.allocOnDemandTyped(c.params.TypeList()[0]))
	}
	return out
}

func (c *Cloud) allocOnDemandTyped(typ InstanceType) *Instance {
	inst := c.newInstance(OnDemand, typ)
	c.sim.After(c.params.AcquireDelay, func() { c.makeReady(inst) })
	return inst
}

// AllocOnDemandGPUs requests on-demand capacity covering at least `gpus`
// devices. The bulk of the deficit is covered by primary-type instances;
// the remainder falls back to the non-primary type that wastes the fewest
// devices (ties: cheapest on-demand $/GPU, then table order) — so a
// 2-device deficit on a {4-GPU, 2-GPU} fleet allocates one small instance
// instead of rounding up to a second large one. On single-type fleets the
// result is exactly ceil(gpus/GPUsPerType) primary instances, matching the
// historical allocator. The created (Pending) instances are returned.
func (c *Cloud) AllocOnDemandGPUs(gpus int) []*Instance {
	types := c.params.TypeList()
	primary := types[0]
	var out []*Instance
	for gpus >= primary.GPUs {
		out = append(out, c.allocOnDemandTyped(primary))
		gpus -= primary.GPUs
	}
	if gpus > 0 {
		best := primary
		for _, t := range types[1:] {
			if t.GPUs < gpus {
				continue // cannot singly cover the remainder
			}
			switch {
			case t.GPUs < best.GPUs, // less waste
				t.GPUs == best.GPUs && t.OnDemandUSDPerHour/float64(t.GPUs) <
					best.OnDemandUSDPerHour/float64(best.GPUs): // cheaper per device
				best = t
			}
		}
		out = append(out, c.allocOnDemandTyped(best))
	}
	return out
}

// Release returns an instance to the provider (Algorithm 1 line 10 frees
// over-provisioned instances, on-demand first). Releasing a spot instance
// simply stops using (and paying for) it.
func (c *Cloud) Release(inst *Instance) {
	c.terminate(inst)
}

// Alive returns all Running-or-Noticed instances in ID order. The slice is
// cached between membership changes (state transitions invalidate it);
// callers must not mutate it.
func (c *Cloud) Alive() []*Instance {
	if c.aliveCache != nil {
		return c.aliveCache
	}
	out := make([]*Instance, 0, len(c.instances))
	for _, inst := range c.instances {
		if inst.Alive() {
			out = append(out, inst)
		}
	}
	c.aliveCache = out
	return out
}

// AliveCount returns len(Alive()) split by kind.
func (c *Cloud) AliveCount() (spot, onDemand int) {
	for _, inst := range c.instances {
		if !inst.Alive() {
			continue
		}
		if inst.Kind == Spot {
			spot++
		} else {
			onDemand++
		}
	}
	return
}

// GPUCount sums the GPUs of non-terminated (Pending, Running or Noticed)
// instances, skipping instance IDs for which skip returns true (nil =
// count all). The device-denominated fleet measure the instance manager
// uses when instance types carry different GPU counts; it allocates
// nothing because it runs on every fleet decision.
func (c *Cloud) GPUCount(skip func(id int64) bool) int {
	n := 0
	for _, inst := range c.instances {
		if inst.State == Terminated || (skip != nil && skip(inst.ID)) {
			continue
		}
		n += len(inst.GPUs)
	}
	return n
}

// PendingCount returns the number of provisioning instances by kind.
func (c *Cloud) PendingCount() (spot, onDemand int) {
	for _, inst := range c.instances {
		if inst.State != Pending {
			continue
		}
		if inst.Kind == Spot {
			spot++
		} else {
			onDemand++
		}
	}
	return
}

// UsableGPUs returns the GPUs of instances that are Running or Noticed
// (grace period still usable), in deterministic order.
func (c *Cloud) UsableGPUs() []*GPU {
	var out []*GPU
	for _, inst := range c.Alive() {
		out = append(out, inst.GPUs...)
	}
	return out
}
