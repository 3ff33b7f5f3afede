"""The source paper's qualitative claims, gated on the README default system.

The abstract says that unknown propagation delays destroy coherent joint
transmission, which the delay-used (DU) precoder repairs, and that
rate-splitting with simple common weights gains sum SE.  These tests check
both on the README default system (40/8/2/4, tau_c 200), averaged over the
topology seeds 1-5, with the power split at its optimum.  The margins come
from an earlier probe of the closed form, not from the code under test:
df_mr coherent read 18.30, 17.75 and 5.52 bit/s/Hz at symbol durations of
1e-5, 1e-6 and 1e-7 s, df_mr non-coherent 5.55, and the mean RS gains were
2.36 and 1.59 bit/s/Hz coherent, 0.36 and 0.26 non-coherent.

``symbol_duration_s`` (``T_s``) also scales the oscillator increment
variance, so every run sets ``PhaseStatistics`` directly.
"""

import dataclasses

import numpy as np
import pytest

import cfrs
from cfrs import closed_form as cf
from cfrs import optimize as opt

SEEDS = (1, 2, 3, 4, 5)
SCHEMES = [(private, transmission) for private in ("du_mr", "df_mr")
           for transmission in ("coherent", "noncoherent")]
ZERO_VARIANCE = cfrs.PhaseStatistics(0.0, 0.0)


def mean_sum_se(T_s: float, phases: cfrs.PhaseStatistics) -> dict:
    """Mean over SEEDS of the (RS at the optimal rho, no-RS) sum SE per scheme."""
    totals = {scheme: np.zeros(2) for scheme in SCHEMES}
    for seed in SEEDS:
        cfg = dataclasses.replace(cfrs.SystemConfig(), T_s=T_s, seed=seed)
        net = cfrs.build_network(cfg)
        pilots = cfrs.assign_pilots(cfg.K, cfg.tau_p)
        stats = cfrs.estimation_statistics(net, pilots, phases, cfg)
        terms = cfrs.TraceTerms.compute(net, stats, pilots)
        for scheme in SCHEMES:
            parts = cf.plan_parts(terms, cf.make_plan(terms, *scheme), phases, cfg,
                                  cfg.data_instants())
            curve = cf.sum_se_curve(parts, cfg.tau_c)
            _, rs = opt.optimal_rho(curve)
            totals[scheme] += (rs, curve(0.0))
    return {scheme: total / len(SEEDS) for scheme, total in totals.items()}


@pytest.fixture(scope="module")
def by_symbol_duration():
    return {T_s: mean_sum_se(T_s, ZERO_VARIANCE) for T_s in (1e-5, 1e-6, 1e-7)}


def test_unknown_delay_phase_destroys_coherent_transmission(by_symbol_duration):
    df = [by_symbol_duration[T_s][("df_mr", "coherent")][0] for T_s in (1e-5, 1e-6, 1e-7)]
    assert df[0] > df[1] > df[2]
    noncoherent = by_symbol_duration[1e-7][("df_mr", "noncoherent")][0]
    assert abs(df[2] - noncoherent) <= 0.1 * noncoherent


def test_delay_used_precoding_does_not_see_the_symbol_duration(by_symbol_duration):
    du = {by_symbol_duration[T_s][("du_mr", "coherent")][0] for T_s in (1e-5, 1e-6, 1e-7)}
    assert len(du) == 1


@pytest.mark.parametrize("variance", ["zero", "default"])
def test_rate_splitting_with_simple_weights_gains(by_symbol_duration, variance):
    if variance == "zero":
        means = by_symbol_duration[1e-5]
    else:
        means = mean_sum_se(1e-5, cfrs.PhaseStatistics.from_config(cfrs.SystemConfig()))
    for scheme, (rs, no_rs) in means.items():
        gain = rs - no_rs
        if scheme[1] == "coherent":
            assert gain >= 1.0, (scheme, gain)
        else:
            assert gain > 0.0, (scheme, gain)
