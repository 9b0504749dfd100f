"""Experiment configuration files (INI sections, human-diffable).

Sections: [system], [metric], [reference], [gain], [simulation],
[certificate]; an absent section reads as an empty one. A builtin shortcut
(builtin = numex | microactuator, or system = numex | microactuator,
not both) pre-populates system, metric, reference and gain; later sections may
override. A custom system is read the same way, with no defaults.
Unknown keys, indexed ones beyond what n and m allow included, are
rejected so typos fail loudly.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

import numpy as np

from .certificates import DEFAULT_POINTS_PER_AXIS, DEFAULT_TOL
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
    entries: list = None          # m x n strings of a user or builtin gain
    r: float = None
    gamma0: float = 1.0
    gamma_const: float = None


@dataclass
class CertSpec:
    checks: tuple = ("c1", "killing")
    grid_points: int = DEFAULT_POINTS_PER_AXIS
    tol: float = DEFAULT_TOL
    lam: float = None
    gamma0: str | float = "auto"
    robust_lambda_form: str = "identity"


@dataclass
class LoadedConfig:
    system: SystemModel
    metric: MetricField
    dual_metric: MetricField
    reference: ReferenceSpec | None  # only simulate needs one
    gain: GainSpec
    sim: RunConfig
    cert: CertSpec
    bundle: BuiltinBundle = None


def _vector(text, n, what):
    parts = text.replace(",", " ").split()
    if len(parts) != n:
        raise ConfigError(f"{what} needs {n} entries, got {len(parts)}")
    try:
        values = np.array([float(p) for p in parts])
    except ValueError as err:
        raise ConfigError(f"bad number in {what}: {err}")
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"{what} entries must be finite")
    return values


def _float(section, key, default=None):
    if key not in section:
        if default is None:
            raise ConfigError(f"missing key '{key}'")
        return default
    return _number(section[key], f"key '{key}'")


def _number(text, what):
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{what} is not a number: {text!r}")


def _int(section, key):
    value = _float(section, key)
    if not value.is_integer():
        raise ConfigError(f"key '{key}' is not an integer: {section[key]!r}")
    return int(value)


def _check_keys(section, name, allowed):
    unknown = [key for key in section if key not in allowed]
    if unknown:
        raise ConfigError(f"unknown key '{unknown[0]}' in [{name}]")


def _load_system(section):
    if "builtin" in section and "system" in section:
        raise ConfigError("[system] sets both builtin and system; set one of them")
    if "builtin" in section or section.get("system", "") in builtin_names():
        name = section.get("builtin", section.get("system"))
        _check_keys(section, "system", {"builtin", "system"})
        try:
            return builtin(name), None
        except ModelError as err:
            raise ConfigError(str(err))
    try:
        n = int(section["n"])
        m = int(section["m"])
    except (KeyError, ValueError):
        raise ConfigError("[system] needs integer keys n and m")
    if not 1 <= m < n:  # before any n x m work; SystemModel checks the same
        raise ConfigError(f"[system]: need integers 1 <= m < n, got n={n}, m={m}")
    f_exprs = []
    for i in range(1, n + 1):
        if f"f{i}" not in section:
            raise ConfigError(f"[system] missing f{i}")
        f_exprs.append(section[f"f{i}"])
    b_keys = [[f"B_{i}_{j}" for j in range(1, m + 1)] for i in range(1, n + 1)]
    _check_keys(section, "system", {"n", "m", "domain_lo", "domain_hi", "name",
                                    *(f"f{i}" for i in range(1, n + 1)),
                                    *(key for row in b_keys for key in row)})
    b_exprs = [[section.get(key, "0") for key in row] for row in b_keys]
    lo = _vector(section.get("domain_lo", " ".join(["-5"] * n)), n, "domain_lo")
    hi = _vector(section.get("domain_hi", " ".join(["5"] * n)), n, "domain_hi")
    try:
        sys = SystemModel(n, m, f_exprs, b_exprs, lo, hi,
                          name=section.get("name", "custom"))
    except Exception as err:
        raise ConfigError(f"[system]: {err}")
    return None, sys


def _load_metric(section, n, defaults):
    if len(section) == 0:
        return defaults.metric, defaults.dual_metric
    upper = {(i, j): f"M_{i + 1}_{j + 1}" for i in range(n) for j in range(i, n)}
    _check_keys(section, "metric", {"p_lo", "p_hi", "lambda", "role", *upper.values()})
    role = section.get("role", "primal")
    entries = [["0"] * n for _ in range(n)]
    for (i, j), key in upper.items():
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
    return (metric, defaults.dual_metric) if role == "primal" else (defaults.metric, metric)


def _load_reference(section, sys, defaults):
    if len(section) == 0:
        return defaults.reference
    _check_keys(section, "reference", {"xd0", *(f"ud{j}" for j in range(1, sys.m + 1))})
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


def _load_gain(section, sys, defaults):
    if len(section) == 0 and defaults.builtin_gain is not None:
        return GainSpec(source="builtin", entries=defaults.builtin_gain)
    k_keys = [[f"K_{i}_{j}" for j in range(1, sys.n + 1)] for i in range(1, sys.m + 1)]
    _check_keys(section, "gain", {"source", "r", "gamma0", "gamma",
                                *(key for row in k_keys for key in row)})
    spec = GainSpec()
    source = spec.source = section.get("source", spec.source)
    if source not in ("synthesized", "user", "builtin"):
        raise ConfigError(f"[gain] unknown source {source!r}")
    if source == "user":
        spec.entries = [[section.get(key, "0") for key in row] for row in k_keys]
        if not any(key in section for row in k_keys for key in row):
            raise ConfigError("[gain] source=user needs K_i_j entries")
    if source == "builtin":
        spec.entries = defaults.builtin_gain  # None on a custom system
    if "r" in section:
        spec.r = _float(section, "r")
    spec.gamma0 = _float(section, "gamma0", spec.gamma0)
    if "gamma" in section:
        text = section["gamma"].split()
        if len(text) != 2 or text[0] != "const":
            raise ConfigError("[gain] gamma must be 'const <value>'")
        spec.gamma_const = _number(text[1], "[gain] gamma")
    given = [v for v in (spec.r, spec.gamma0, spec.gamma_const) if v is not None]
    if not all(0 < v < math.inf for v in given):  # also rejects nan
        raise ConfigError("[gain] r, gamma0 and gamma must be finite and > 0")
    return spec


def _load_sim(section, sys):
    _check_keys(
        section, "simulation",
        {"controller", "T", "h", "x0", "z0", "ell", "geodesic_N", "err_threshold",
         *(f"u{j}" for j in range(1, sys.m + 1))},
    )
    # only the keys the file sets; RunConfig holds the defaults
    kwargs = {key: _float(section, key)
              for key in ("T", "h", "ell", "err_threshold") if key in section}
    if "controller" in section:
        kwargs["kind"] = section["controller"]
    if "geodesic_N" in section:
        kwargs["geodesic_segments"] = _int(section, "geodesic_N")
    for key in ("x0", "z0"):
        if key in section:
            kwargs[key] = _vector(section[key], sys.n, key)
    if kwargs.get("kind") == "custom":
        kwargs["custom_u"] = [section.get(f"u{j + 1}", "0") for j in range(sys.m)]
        if all(f"u{j + 1}" not in section for j in range(sys.m)):
            raise ConfigError("[simulation] controller=custom needs u1..um")
    try:
        return RunConfig(**kwargs)
    except SimulationError as err:
        raise ConfigError(f"[simulation]: {err}")


def _load_cert(section):
    _check_keys(
        section, "certificate",
        {"checks", "grid", "tol", "lambda", "gamma0", "robust_lambda_form"},
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
        spec.grid_points = _int(section, "grid")
    spec.tol = _float(section, "tol", spec.tol)
    if "lambda" in section:
        spec.lam = _float(section, "lambda")
    if "gamma0" in section and section["gamma0"] != "auto":
        spec.gamma0 = _number(section["gamma0"], "[certificate] gamma0")
    if not (0 <= spec.tol < math.inf and 0 <= (spec.lam or 0) < math.inf):  # also rejects nan
        raise ConfigError("[certificate] tol and lambda must be finite and >= 0")
    if spec.gamma0 != "auto" and not 0 < spec.gamma0 < math.inf:
        raise ConfigError("[certificate] gamma0 must be finite and > 0")
    spec.robust_lambda_form = section.get("robust_lambda_form", spec.robust_lambda_form)
    if spec.robust_lambda_form not in ("identity", "metric"):
        raise ConfigError("[certificate] robust_lambda_form must be identity|metric")
    return spec


def load_config(path):
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case sensitive (M_1_1 vs m)
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as err:
        reason = " ".join(part.strip() for part in str(err).splitlines())  # configparser's span lines
        raise ConfigError(f"cannot read config file {path!r}: {reason}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    known_sections = {"system", "metric", "reference", "gain", "simulation",
                      "certificate"}
    extra = set(parser.sections()) - known_sections
    if extra:
        raise ConfigError(f"unknown sections: {sorted(extra)}")
    if "system" not in parser:
        raise ConfigError("config needs a [system] section")
    for name in known_sections - set(parser.sections()):
        parser.add_section(name)  # an absent section reads as an empty one

    bundle, custom = _load_system(parser["system"])
    defaults = bundle or BuiltinBundle(custom, None, None, None, None)  # a custom system has none
    sys = defaults.system
    metric, dual = _load_metric(parser["metric"], sys.n, defaults)
    reference = _load_reference(parser["reference"], sys, defaults)
    gain = _load_gain(parser["gain"], sys, defaults)
    sim = _load_sim(parser["simulation"], sys)
    cert = _load_cert(parser["certificate"])
    return LoadedConfig(
        system=sys, metric=metric, dual_metric=dual, reference=reference,
        gain=gain, sim=sim, cert=cert, bundle=bundle,
    )
