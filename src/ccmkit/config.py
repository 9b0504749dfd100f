"""Experiment configuration files (INI sections, human-diffable).

Sections: [system], [metric], [reference], [gain], [simulation],
[certificate]. A builtin shortcut (system = numex | microactuator)
pre-populates system, metric and reference; later sections may override.
Unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import configparser
import re
from dataclasses import dataclass

import numpy as np

from .model import (
    BuiltinBundle,
    MetricField,
    ModelError,
    ReferenceSpec,
    SystemModel,
    builtin,
    builtin_names,
)
from .sim import RunConfig, SimulationError


class ConfigError(ValueError):
    pass


@dataclass
class GainSpec:
    source: str = "synthesized"   # synthesized | user | builtin
    entries: list = None          # m x n strings for user gains
    r: float = None
    gamma0: float = 1.0
    gamma_const: float = None


@dataclass
class CertSpec:
    checks: tuple = ("c1", "killing")
    grid_points: int = 21
    tol: float = 1e-8
    lam: float = None
    gamma0: str = "auto"
    robust_lambda_form: str = "identity"


@dataclass
class LoadedConfig:
    system: SystemModel
    metric: MetricField
    dual_metric: MetricField
    reference: ReferenceSpec
    gain: GainSpec
    sim: RunConfig
    cert: CertSpec
    bundle: BuiltinBundle = None


def _vector(text, n, what):
    parts = text.replace(",", " ").split()
    if len(parts) != n:
        raise ConfigError(f"{what} needs {n} entries, got {len(parts)}")
    try:
        return np.array([float(p) for p in parts])
    except ValueError as err:
        raise ConfigError(f"bad number in {what}: {err}")


def _float(section, key, default=None):
    if key not in section:
        if default is None:
            raise ConfigError(f"missing key '{key}'")
        return default
    try:
        return float(section[key])
    except ValueError:
        raise ConfigError(f"key '{key}' is not a number: {section[key]!r}")


def _check_keys(section, name, allowed_patterns):
    for key in section:
        if not any(re.fullmatch(p, key) for p in allowed_patterns):
            raise ConfigError(f"unknown key '{key}' in [{name}]")


def _load_system(section):
    if "builtin" in section or section.get("system", "") in builtin_names():
        name = section.get("builtin", section.get("system"))
        _check_keys(section, "system", ["builtin", "system"])
        try:
            return builtin(name), None
        except ModelError as err:
            raise ConfigError(str(err))
    _check_keys(
        section, "system",
        ["n", "m", r"f\d+", r"B_\d+_\d+", "domain_lo", "domain_hi", "name"],
    )
    try:
        n = int(section["n"])
        m = int(section["m"])
    except (KeyError, ValueError):
        raise ConfigError("[system] needs integer keys n and m")
    f_exprs = []
    for i in range(1, n + 1):
        if f"f{i}" not in section:
            raise ConfigError(f"[system] missing f{i}")
        f_exprs.append(section[f"f{i}"])
    b_exprs = [
        [section.get(f"B_{i}_{j}", "0") for j in range(1, m + 1)]
        for i in range(1, n + 1)
    ]
    lo = _vector(section.get("domain_lo", " ".join(["-5"] * n)), n, "domain_lo")
    hi = _vector(section.get("domain_hi", " ".join(["5"] * n)), n, "domain_hi")
    try:
        sys = SystemModel(n, m, f_exprs, b_exprs, lo, hi,
                          name=section.get("name", "custom"))
    except Exception as err:
        raise ConfigError(f"[system]: {err}")
    return None, sys


def _load_metric(section, n, bundle):
    if len(section) == 0:
        if bundle is not None:
            return bundle.metric, bundle.dual_metric
        return None, None
    _check_keys(section, "metric", [r"M_\d+_\d+", "p_lo", "p_hi", "lambda", "role"])
    role = section.get("role", "primal")
    entries = [["0"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            key = f"M_{i + 1}_{j + 1}"
            if key in section:
                entries[i][j] = section[key]
            elif i == j:
                raise ConfigError(f"[metric] missing diagonal entry {key}")
    try:
        metric = MetricField(
            n, entries,
            p_lo=_float(section, "p_lo"),
            p_hi=_float(section, "p_hi"),
            lam=_float(section, "lambda", 0.0),
            role=role,
        )
    except Exception as err:
        raise ConfigError(f"[metric]: {err}")
    if bundle is not None:
        if role == "primal":
            return metric, bundle.dual_metric
        return bundle.metric, metric
    return (metric, None) if role == "primal" else (None, metric)


def _load_reference(section, sys, bundle):
    if len(section) == 0 and bundle is not None:
        return bundle.reference
    _check_keys(section, "reference", ["xd0", r"ud\d+"])
    if "xd0" not in section:
        raise ConfigError("[reference] missing xd0")
    xd0 = _vector(section["xd0"], sys.n, "xd0")
    ud = []
    for j in range(1, sys.m + 1):
        ud.append(section.get(f"ud{j}", "0"))
    try:
        return ReferenceSpec.from_strings(sys.n, xd0, ud)
    except Exception as err:
        raise ConfigError(f"[reference]: {err}")


def _load_gain(section, sys, bundle):
    if len(section) == 0:
        return GainSpec(source="builtin" if bundle is not None else "synthesized",
                        gamma_const=bundle.gamma_const if bundle else None)
    _check_keys(section, "gain", ["source", r"K_\d+_\d+", "r", "gamma0", "gamma"])
    source = section.get("source", "synthesized")
    if source not in ("synthesized", "user", "builtin"):
        raise ConfigError(f"[gain] unknown source {source!r}")
    spec = GainSpec(source=source)
    if source == "user":
        spec.entries = [
            [section.get(f"K_{i + 1}_{j + 1}", "0") for j in range(sys.n)]
            for i in range(sys.m)
        ]
        missing = all(
            f"K_{i + 1}_{j + 1}" not in section
            for i in range(sys.m)
            for j in range(sys.n)
        )
        if missing:
            raise ConfigError("[gain] source=user needs K_i_j entries")
    if "r" in section:
        spec.r = _float(section, "r")
    spec.gamma0 = _float(section, "gamma0", 1.0)
    if "gamma" in section:
        text = section["gamma"].split()
        if len(text) != 2 or text[0] != "const":
            raise ConfigError("[gain] gamma must be 'const <value>'")
        spec.gamma_const = float(text[1])
    elif source == "builtin" and bundle is not None:
        spec.gamma_const = bundle.gamma_const
    return spec


def _load_sim(section, sys, bundle):
    _check_keys(
        section, "simulation",
        ["controller", "T", "h", "x0", "z0", "ell", "geodesic_N",
         "err_threshold", r"u\d+"],
    )
    kind = section.get("controller", "dynext")
    custom_u = None
    if kind == "custom":
        custom_u = [section.get(f"u{j + 1}", "0") for j in range(sys.m)]
        if all(f"u{j + 1}" not in section for j in range(sys.m)):
            raise ConfigError("[simulation] controller=custom needs u1..um")
    try:
        return RunConfig(
            kind=kind,
            T=_float(section, "T", 20.0),
            h=_float(section, "h", 1e-3),
            x0=_vector(section["x0"], sys.n, "x0") if "x0" in section else None,
            z0=_vector(section["z0"], sys.n, "z0") if "z0" in section else None,
            ell=_float(section, "ell", 5.0),
            geodesic_segments=int(_float(section, "geodesic_N", 32)),
            custom_u=custom_u,
            err_threshold=_float(section, "err_threshold", 1e-2),
        )
    except SimulationError as err:
        raise ConfigError(f"[simulation]: {err}")


def _load_cert(section):
    _check_keys(
        section, "certificate",
        ["checks", "grid", "tol", "lambda", "gamma0", "robust_lambda_form"],
    )
    spec = CertSpec()
    if "checks" in section:
        checks = tuple(section["checks"].replace(",", " ").split())
        known = {"c1", "killing", "dual-w", "robust"}
        bad = set(checks) - known
        if bad:
            raise ConfigError(f"[certificate] unknown checks: {sorted(bad)}")
        spec.checks = checks
    if "grid" in section:
        spec.grid_points = int(_float(section, "grid"))
    spec.tol = _float(section, "tol", 1e-8)
    if "lambda" in section:
        spec.lam = _float(section, "lambda")
    spec.gamma0 = section.get("gamma0", "auto")
    spec.robust_lambda_form = section.get("robust_lambda_form", "identity")
    if spec.robust_lambda_form not in ("identity", "metric"):
        raise ConfigError("[certificate] robust_lambda_form must be identity|metric")
    return spec


def load_config(path):
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case sensitive (M_1_1 vs m)
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    known_sections = {"system", "metric", "reference", "gain", "simulation",
                      "certificate"}
    extra = set(parser.sections()) - known_sections
    if extra:
        raise ConfigError(f"unknown sections: {sorted(extra)}")
    if "system" not in parser:
        raise ConfigError("config needs a [system] section")

    bundle, sys = _load_system(parser["system"])
    if bundle is not None:
        sys = bundle.system
    empty = {}
    metric, dual = _load_metric(parser["metric"] if "metric" in parser else empty,
                                sys.n, bundle)
    reference = _load_reference(
        parser["reference"] if "reference" in parser else empty, sys, bundle
    )
    if reference is None:
        raise ConfigError("no [reference] section and no builtin default")
    gain = _load_gain(parser["gain"] if "gain" in parser else empty, sys, bundle)
    sim = _load_sim(parser["simulation"] if "simulation" in parser else empty,
                    sys, bundle)
    cert = _load_cert(parser["certificate"] if "certificate" in parser else empty)
    return LoadedConfig(
        system=sys, metric=metric, dual_metric=dual, reference=reference,
        gain=gain, sim=sim, cert=cert, bundle=bundle,
    )
