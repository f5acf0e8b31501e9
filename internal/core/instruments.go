package core

import (
	"surfnet/internal/faults"
	"surfnet/internal/telemetry"
)

// instruments holds the engine's pre-resolved metrics so the slot loop pays
// one registry lookup per instrument per transfer, not per event. With a nil
// registry every field is nil and each recording site costs one nil check.
type instruments struct {
	photonLoss      *telemetry.Counter // Support photons lost to the plain channel
	teleports       *telemetry.Counter // opportunistic Core segment moves
	teleportHops    *telemetry.Counter // fibers covered by those moves
	coreStalls      *telemetry.Counter // slots the Core part waited for entanglement
	decodes         *telemetry.Counter // error-correction decodes performed
	decodeFailures  *telemetry.Counter // decodes that left a logical error
	fiberCrashes    *telemetry.Counter // stochastic/scripted fiber outages sampled
	nodeCrashes     *telemetry.Counter // node/server outages sampled
	regionCrashes   *telemetry.Counter // correlated regional failures sampled
	driftEpisodes   *telemetry.Counter // fidelity-drift episodes started
	correctionSkips *telemetry.Counter // corrections skipped at down servers
	recoveries      *telemetry.Counter // successful local recovery reroutes
	recoveryFails   *telemetry.Counter // blocked parts with no recovery path
	backoffSkips    *telemetry.Counter // blocked slots waited out under recovery backoff
	replans         *telemetry.Counter // epoch re-plans over the surviving topology
	replanFails     *telemetry.Counter // re-plans that found no admissible route
	retransmissions *telemetry.Counter // Support retransmission waves
	delivered       *telemetry.Counter // codes delivered within MaxSlots
	timeouts        *telemetry.Counter // codes still in flight at MaxSlots

	latency        *telemetry.HDR // delivery latency in slots
	erasedAtDecode *telemetry.HDR // erasures entering each decode
}

func newInstruments(reg *telemetry.Registry) instruments {
	if reg == nil {
		return instruments{}
	}
	return instruments{
		photonLoss:      reg.Counter("core.photon_loss"),
		teleports:       reg.Counter("core.teleports"),
		teleportHops:    reg.Counter("core.teleport_hops"),
		coreStalls:      reg.Counter("core.core_stalls"),
		decodes:         reg.Counter("core.decodes"),
		decodeFailures:  reg.Counter("core.decode_failures"),
		fiberCrashes:    reg.Counter("core.fiber_crashes"),
		nodeCrashes:     reg.Counter("core.node_crashes"),
		regionCrashes:   reg.Counter("core.region_crashes"),
		driftEpisodes:   reg.Counter("core.drift_episodes"),
		correctionSkips: reg.Counter("core.correction_skips"),
		recoveries:      reg.Counter("core.recoveries"),
		recoveryFails:   reg.Counter("core.recovery_failures"),
		backoffSkips:    reg.Counter("core.recovery_backoff_skips"),
		replans:         reg.Counter("core.replans"),
		replanFails:     reg.Counter("core.replan_failures"),
		retransmissions: reg.Counter("core.retransmissions"),
		delivered:       reg.Counter("core.delivered"),
		timeouts:        reg.Counter("core.timeouts"),
		latency:         reg.HDR("core.delivery_latency_slots", telemetry.CountSpec),
		erasedAtDecode:  reg.HDR("core.erased_at_decode", telemetry.CountSpec),
	}
}

// faultEmitter translates injector events into the engine's per-fault-class
// counters and slot-level traces, tagged with the communication's identity.
func faultEmitter(ins instruments, tracer telemetry.Tracer, ri, ci int) func(faults.Event) {
	trace := func(slot int, typ string, kv ...any) {
		if tracer == nil {
			return
		}
		ev := telemetry.Ev(typ, kv...)
		ev.Slot, ev.Req, ev.Code = slot, ri, ci
		tracer.Emit(ev)
	}
	return func(ev faults.Event) {
		switch ev.Kind {
		case faults.FiberCrash:
			ins.fiberCrashes.Inc()
			trace(ev.Slot, "core.fiber_crash", "fiber", ev.ID, "until", ev.Until)
		case faults.FiberRepair:
			trace(ev.Slot, "core.fiber_repair", "fiber", ev.ID)
		case faults.NodeCrash:
			ins.nodeCrashes.Inc()
			trace(ev.Slot, "core.node_crash", "node", ev.ID, "until", ev.Until)
		case faults.NodeRepair:
			trace(ev.Slot, "core.node_repair", "node", ev.ID)
		case faults.RegionCrash:
			ins.regionCrashes.Inc()
			trace(ev.Slot, "core.region_crash", "node", ev.ID, "until", ev.Until)
		case faults.RegionRepair:
			trace(ev.Slot, "core.region_repair", "node", ev.ID)
		case faults.DriftStart:
			ins.driftEpisodes.Inc()
			trace(ev.Slot, "core.drift_start", "fiber", ev.ID, "until", ev.Until)
		case faults.DriftEnd:
			trace(ev.Slot, "core.drift_end", "fiber", ev.ID)
		}
	}
}
