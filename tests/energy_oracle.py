"""An energy oracle independent of ``EnergyMeter``'s own integration.

``record_transitions`` wraps ``EnergyMeter.register`` and ``set_state`` so
that every meter built afterwards logs its entities' profiles and state
changes; ``replay_energy`` recomputes each entity's joules from such a log.
The ``set_state`` wrapper also asserts that each call changes the state,
since the benchmark counts its calls as state changes.
"""

import itertools

from ransim import orchestrate as orch


class TransitionLog:
    def __init__(self):
        self.profiles = {}  # entity -> PowerProfile
        self.transitions = []  # (t_us, entity, new state), in call order


def record_transitions(monkeypatch):
    """Install the wrappers; returns a dict that maps each meter built from
    now on to its ``TransitionLog``."""
    logs = {}
    register = orch.EnergyMeter.register
    set_state = orch.EnergyMeter.set_state

    def registering(meter, entity, profile):
        register(meter, entity, profile)
        log = logs.setdefault(meter, TransitionLog())
        log.profiles[entity] = profile
        log.transitions.append((0, entity, meter.state(entity)))

    def changing(meter, entity, state, now):
        assert meter.state(entity) != state, (now, entity, state)
        set_state(meter, entity, state, now)
        logs[meter].transitions.append((now, entity, state))

    monkeypatch.setattr(orch.EnergyMeter, "register", registering)
    monkeypatch.setattr(orch.EnergyMeter, "set_state", changing)
    return logs


def replay_energy(log, t_end):
    """Joules per entity: each state's power over the time until the
    entity's next transition, or ``t_end``, summed in time order."""
    by_entity = {}
    for t, entity, state in log.transitions:
        by_entity.setdefault(entity, []).append((t, state))
    energy = {}
    for entity, events in by_entity.items():
        power = log.profiles[entity].power
        total = 0.0
        for (t0, state), (t1, _next) in itertools.pairwise(
                events + [(t_end, None)]):
            total += power(state) * (t1 - t0) / 1e6
        energy[entity] = total
    return energy
