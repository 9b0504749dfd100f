"""Shared fixtures: builtin bundles and the two reference scenarios.

The scenario runs are expensive (tens of thousands of coupled RK4
steps), so they are executed once per session and shared between the
simulation tests and the acceptance tests, with wall-clock timings
recorded for the runtime-bounded acceptance criteria.
"""

import time

import numpy as np
import pytest

from ccmkit import expr as ex
from ccmkit import sim
from ccmkit.controller import GainField
from ccmkit.model import builtin
from ccmkit.sim import RunConfig, run_closed_loop


@pytest.fixture(scope="session")
def numex():
    return builtin("numex")


@pytest.fixture(scope="session")
def micro():
    return builtin("microactuator")


@pytest.fixture(scope="session")
def numex_gain(numex):
    return GainField.from_exprs(2, 1, numex.builtin_gain)


@pytest.fixture(scope="session")
def micro_gain(micro):
    return GainField.from_exprs(3, 1, micro.builtin_gain)


@pytest.fixture(scope="session")
def closed_loop_parts():
    """parts(sys, metric, gain, ref, cfg): what `sim._closed_loop` generates its
    run from, captured in a fresh build, as a dict: "names", the state names;
    "held", the names the geodesic law and step read v from (none for the other
    kinds); "rates"; "step", the RK4 step over them; "law", [u, u_d] over t,
    the states and held."""

    def parts(sys, metric, gain, ref, cfg):
        seen = {}

        def straight_line(expr, original=ex._straight_line):
            seen["expr"] = expr
            return original(expr)

        def rk4_exprs(rates, state_names, original=sim.rk4_exprs):
            seen.update(rates=rates, names=list(state_names))
            return original(rates, state_names)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ex, "_straight_line", straight_line)
            patch.setattr(sim, "rk4_exprs", rk4_exprs)
            patch.setattr(sim, "_BUILT", [((), None)])
            sim._closed_loop(sys, metric, gain, ref, cfg)
        held = [f"v{j + 1}" for j in range(sys.m)] if cfg.kind == "geodesic" else []
        return {"names": seen["names"], "held": held, "rates": seen["rates"],
                "step": seen["expr"][2], "law": seen["expr"][:2]}

    return parts


@pytest.fixture(scope="session")
def scenario_a(numex, numex_gain):
    """Planar-system dynamic-extension tracking run, timed."""
    cfg = RunConfig(
        kind="dynext",
        T=20.0,
        h=1e-3,
        x0=np.array([-5.0, 2.0]),
        z0=np.array([0.0, 0.0]),
        ell=5.0,
    )
    start = time.perf_counter()
    trace = run_closed_loop(numex.system, numex.metric, numex_gain,
                            numex.reference, cfg)
    elapsed = time.perf_counter() - start
    return trace, elapsed


@pytest.fixture(scope="session")
def scenario_b(micro, micro_gain):
    """Microactuator constant-gain static tracking run, timed."""
    cfg = RunConfig(
        kind="static",
        T=30.0,
        h=1e-3,
        x0=np.array([1.5, 1.0, 2.0]),
    )
    start = time.perf_counter()
    trace = run_closed_loop(micro.system, micro.metric, micro_gain,
                            micro.reference, cfg)
    elapsed = time.perf_counter() - start
    return trace, elapsed
