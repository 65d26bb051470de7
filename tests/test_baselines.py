import pytest

from msjc.baselines import pi_target, route_travel_time

# kp, ki as in ControlConfig's defaults
GAINS = dict(kp=0.05, ki=0.01)


def test_pi_step_worked_by_hand():
    # 0.8 - 0.05 * (44 - 40) - 0.01 * (44 - 42) = 0.8 - 0.2 - 0.02
    target = pi_target(0.8, 40.0, 44.0, 42.0, **GAINS, m_min=0.1, m_max=1.0)
    assert target == pytest.approx(0.58, abs=1e-15)


def test_pi_step_clamps_at_the_envelope_floor():
    # a receiving region filling fast: raw 0.8 - 1.0 - 0.18 = -0.38
    assert pi_target(0.8, 40.0, 60.0, 42.0, **GAINS, m_min=0.1, m_max=1.0) == 0.1


def test_pi_step_clamps_at_the_envelope_ceiling():
    # a receiving region emptying fast: raw 0.8 + 1.0 + 0.22 = 2.02
    assert pi_target(0.8, 40.0, 20.0, 42.0, **GAINS, m_min=0.1, m_max=1.0) == 1.0


def test_route_travel_time_adds_left_to_right():
    # Python 3.12's sum() of floats is compensated: sum([0.1] * 10) == 1.0
    # there but 0.9999999999999999 on 3.11; one left-to-right rule keeps
    # a logit draw's inputs the same on both
    times = {f"l{k}": 0.1 for k in range(10)}
    assert route_travel_time(list(times), times) == 0.9999999999999999
