"""Config-driven pipeline from frequency data to verdict reports.

Reads a strict JSON config, runs the requested stages (hypothesis checks,
torus splitting, factory construction, quasimode verification, wavefront
verdicts), and writes report.json, decay.csv, massmap.csv and an echo of
the materialized config.  All artifacts are byte-deterministic for a fixed
config: keys are sorted, floats are printed at 17 significant digits, and
importing toruslab pins BLAS threading before numpy loads, so reduction
orders cannot drift with the ambient thread count.

Exit codes: 0 when all requested checks pass, 2 when a check fails, 1 on
usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .exact import (
    ExactNumber,
    FrequencyVector,
    IrrationalBasis,
    InvariantViolation,
    find_resonant_mode,
    rational_row,
    relation_lattice,  # not called here: the benchmark tracer probes this name
    split_frequencies,
)
from .nondegeneracy import HessianForm, bordered_determinant, is_quasiconvex
from .quasimode import (
    NULL_TOL,
    build_factory_quasimode,
    check_galerkin_budget,
    check_mode_concentration,
    decompose_along_T,  # not called here: the benchmark tracer probes this name
    default_h_ladder,
    galerkin_nullspace,
    unique_continuation_constant,
    verify_quasimode_order,
)
from .trigpoly import TrigPolynomial
from .wavefront import (
    PhaseSpaceGrid,
    VerdictThresholds,
    check_massmap_budget,
    nonconcentration_report,
    wavefront_mass_map,
)

__all__ = ["ConfigError", "LabConfig", "parse_config", "run_pipeline", "write_report", "main"]

EXIT_PASS = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2

_STAGES = ("hypotheses", "split", "build", "verify", "wavefront")
_COMMAND_STAGES = {
    "check-hypotheses": ("hypotheses",),
    "split": ("split",),
    "build-quasimode": ("split", "build"),
    "verify": ("split", "build", "verify"),
    "wavefront": ("split", "build", "wavefront"),
    "all": _STAGES,
}
_ARTIFACTS = ("config.echo", "family", "decay.csv", "massmap.csv", "report.json")
#: The file of each stage artifact, removed from out_dir by a run that skips it.
_STAGE_ARTIFACT_FILES = {"family": "family/manifest.json", "decay.csv": "decay.csv", "massmap.csv": "massmap.csv"}


class ConfigError(ValueError):
    """Config rejection carrying precise (path, message) pairs."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(f"{path}: {message}" for path, message in self.errors))


# ---------------------------------------------------------------------------
# Deterministic serialization
# ---------------------------------------------------------------------------


def _format_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def canonical_json(obj, indent: int = 0) -> str:
    """JSON text with sorted keys and floats at 17 significant digits."""
    pad = " " * indent
    inner = " " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=True)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        body = ",\n".join(inner + canonical_json(x, indent + 1) for x in obj)
        return "[\n" + body + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError("report keys must be strings")
            parts.append(inner + json.dumps(key) + ": " + canonical_json(obj[key], indent + 1))
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_report(results: dict, path: Path) -> None:
    """Serialize a results mapping deterministically; same input, same
    bytes."""
    path.write_text(canonical_json(results) + "\n", encoding="utf-8")


def _write_csv(path: Path, header: Sequence[str], chunks) -> None:
    """Write a header and preformatted chunks, streaming them to the file as
    given; a chunk holds one or more lines, each ended by a newline."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(header) + "\n")
        f.writelines(chunks)


#: Nodes per chunk of massmap.csv.  On the default 32-point grid on T^2 a
#: plane is one block, so each distinct mass of a plane is formatted once
#: (golden: 1,093 masses and 51 coordinate, covector and h texts; blocks of
#: 256 nodes formatted 2,167 floats).  A golden chunk is about 430 kB; the
#: writer's tracemalloc peak is 1.2 MB there (0.5 MB with 256 nodes) and
#: within 1% of 256-node blocks' at 128 and 247 points per axis.
_MASSMAP_BLOCK_NODES = 1024


def _float_texts(values: np.ndarray) -> np.ndarray:
    """The _format_float text of every entry of a float array, as an object
    array of its shape; each distinct value is formatted once, keyed by its
    bits, so -0.0 and 0.0 keep their own texts."""
    bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    texts = np.array([_format_float(x) for x in bits.view(float).tolist()], dtype=object)
    return texts[inverse.reshape(values.shape)]


def _massmap_chunks(mass_map):
    """Lines for ``masses[xi, node, h]`` in C order (x coordinates,
    covector, h, mass), one newline-terminated string per block of nodes.
    A row's pieces are ``["", ",xi,h_0,mass_0\\n", ...]``, formatted once
    and kept while consecutive blocks use that row, so a node's lines are
    one join of its row's pieces with its coordinates as the separator."""
    grid, keys = mass_map.grid, mass_map.node_row.tolist()
    nodes = list(map(",".join, _float_texts(grid.x_nodes).tolist()))
    hs = [_format_float(h) for h in mass_map.h_ladder]
    for xi, plane in zip(grid.xi_points, mass_map.rows):
        xi_text = ",".join(map(_format_float, xi))
        heads = np.array([f",{xi_text},{h}," for h in hs], dtype=object)
        pieces: dict[int, list[str]] = {}
        for start in range(0, len(nodes), _MASSMAP_BLOCK_NODES):
            block = slice(start, start + _MASSMAP_BLOCK_NODES)
            used = dict.fromkeys(keys[block])
            fresh = list(used.keys() - pieces.keys())
            pieces = dict(zip(used, map(pieces.get, used)))
            lines = heads + _float_texts(plane[fresh]) + "\n"
            pieces.update(zip(fresh, np.insert(lines, 0, "", axis=1).tolist()))
            yield "".join(map(str.join, nodes[block], map(pieces.__getitem__, keys[block])))


# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------

def _threshold_values(thresholds: VerdictThresholds) -> dict:
    return {name: getattr(thresholds, name) for name in thresholds._fields}


_DEFAULTS = {
    "basis": {"names": ["1"], "values": [1.0]},
    "c": "resonant",
    "factory": None,
    "remainder": False,
    "h_ladder": default_h_ladder(),
    "truncation": 16,
    "delta": 1.0,
    "epsilon": 0.05,
    "subdomain": [0.0, 0.25],
    "grid": {"points_per_axis": 32, "xi": "units"},
    "thresholds": {**_threshold_values(VerdictThresholds()), "null_tol": NULL_TOL},
    "out": "results",
}

_TOP_KEYS = {"dimension", "omega", "hessian"} | set(_DEFAULTS)


class LabConfig(NamedTuple):
    """Validated pipeline inputs plus the materialized raw config."""

    dimension: int
    basis: IrrationalBasis
    omega: FrequencyVector
    hessian: HessianForm
    c_spec: object  # "resonant" or ExactNumber
    factory_alpha0: Optional[tuple[int, ...]]
    factory_v: Optional[TrigPolynomial]
    remainder: bool
    h_ladder: tuple[float, ...]
    truncation: int
    delta: float
    epsilon: float
    subdomain: tuple[float, float]
    grid: PhaseSpaceGrid
    thresholds: VerdictThresholds
    null_tol: float
    out: str
    echo: dict


def parse_ladder(value) -> tuple[float, ...]:
    if isinstance(value, str):
        match = re.fullmatch(r"\s*(\d+)\.\.(\d+)\s*", value)
        if not match:
            raise ValueError("ladder must look like '4..12' or be a list of floats")
        if int(match.group(2)) > 1074:
            raise ValueError("ladder exponents above 1074 underflow to h = 0")
        ladder = default_h_ladder(int(match.group(1)), int(match.group(2)))
    else:
        ladder = tuple(float(x) for x in value)
    if len(ladder) < 4:
        raise ValueError("ladder needs at least four points")
    if any(h <= 0 for h in ladder) or any(b >= a for a, b in zip(ladder, ladder[1:])):
        raise ValueError("ladder must be positive and strictly decreasing")
    if ladder[0] > 1:
        raise ValueError(f"ladder values are semiclassical h and must be at most 1, not {ladder[0]!r}")
    return ladder


class _Rejected(str):
    """A number no config field can hold, decoded as the reason why."""


def _reject_constant(token: str):
    return _Rejected(f"non-finite number {token} is not allowed")


def _finite_float(token: str):
    value = float(token)
    return value if math.isfinite(value) else _Rejected(f"number {token} overflows to {value}")


def _float_range_int(token: str):
    value = int(token)
    if abs(value) <= sys.float_info.max:
        return value
    return _Rejected(f"integer of {len(token)} characters exceeds the float range")


def _leaves(obj, path: str = ""):
    """(path, value) for every scalar inside decoded JSON."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(obj, list):
        for index, value in enumerate(obj):
            yield from _leaves(value, f"{path}[{index}]")
    else:
        yield path or "<document>", obj


#: Largest magnitude of a factory frequency entry (factory.alpha0 and
#: factory.v[i].alpha).  |alpha|^2 + 1 stays exact in float64 and every
#: frequency fits intp.
FACTORY_FREQUENCY_MAX = 10**6

# Paths of the fields that hold JSON numbers, and of those that hold JSON
# integers: a string such as "nan" would pass float() and miss the
# finiteness checks, and int() would truncate a fractional mode.  omega and
# c are rational strings.
_NUMBER_FIELD = re.compile(
    r"(?P<number>(hessian|h_ladder|basis\.values|grid\.xi)(\[\d+\])+|factory\.v\[\d+\]\.(re|im)"
    r"|thresholds\.(in_exponent|out_exponent|fill_fraction|null_tol))"
    r"|(?P<integer>factory\.(alpha0|v\[\d+\]\.alpha)(\[\d+\])*)"
)


def _load_json(text: str):
    """Decode JSON text, rejecting NaN, Infinity, literals that overflow
    to infinity and integers beyond the float range at their paths; valid
    numbers decode to the same values.  Returns the document and its
    (path, value) leaves."""
    try:
        raw = json.loads(
            text, parse_constant=_reject_constant, parse_float=_finite_float, parse_int=_float_range_int
        )
    except json.JSONDecodeError as exc:
        raise ConfigError([("<document>", f"not valid JSON: {exc}")])
    except ValueError as exc:
        raise ConfigError([("<document>", str(exc))])
    leaves = list(_leaves(raw))
    rejected = [(path, str(value)) for path, value in leaves if isinstance(value, _Rejected)]
    if rejected:
        raise ConfigError(rejected)
    return raw, leaves


def _integer(value) -> bool:
    """Whether a decoded JSON value is an integer; booleans are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value) -> bool:
    """Whether a decoded JSON value is a number; booleans are not."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _parse_basis(raw) -> IrrationalBasis:
    if not isinstance(raw, dict) or set(raw) != {"names", "values"}:
        raise ValueError("must be an object with keys 'names' and 'values'")
    return IrrationalBasis(tuple(raw["names"]), tuple(raw["values"]))


def _parse_omega(raw, dimension: int, basis: IrrationalBasis) -> FrequencyVector:
    if not isinstance(raw, list) or len(raw) != dimension:
        raise ValueError(f"must be a list of {dimension} coordinate rows")
    return FrequencyVector.from_rows(raw, basis.dim)


def _check_finite(basis: IrrationalBasis, entry: ExactNumber) -> None:
    """Refuse a frequency beyond the float range: (D) and (F) read omega as floats."""
    try:
        if math.isfinite(basis.to_float(entry)):
            return
    except (OverflowError, ValueError):  # a coordinate past float, or inf - inf in fsum
        pass
    raise ValueError("value under the basis values is not a finite float")


def _parse_hessian(raw, dimension: int) -> HessianForm:
    matrix = np.array(raw, dtype=float)
    if matrix.shape != (dimension, dimension):
        raise ValueError(f"must be a {dimension}x{dimension} matrix")
    return HessianForm(matrix)


def _parse_factory(raw) -> tuple[Optional[tuple[int, ...]], Optional[TrigPolynomial]]:
    """(alpha0, v) of a factory block; (None, None) without one."""
    if raw is None:
        return None, None
    if not isinstance(raw, dict) or set(raw) != {"alpha0", "v"}:
        raise ValueError("must be an object with keys 'alpha0' and 'v'")
    alpha0 = tuple(int(a) for a in raw["alpha0"])
    v = TrigPolynomial.from_json_obj(raw["v"], dim=None if raw["v"] else 0)
    norm = math.hypot(*v.table()[1].view(float).tolist())  # a nonzero norm must square to a normal float
    if not (norm == 0.0 or sys.float_info.min <= norm * norm <= sys.float_info.max):
        raise ConfigError([("factory.v", f"profile norm {norm!r} {'over' if norm > 1 else 'under'}flows when squared")])
    return alpha0, v


def _parse_thresholds(filled: dict) -> tuple[VerdictThresholds, float]:
    """The verdict thresholds and null_tol of a filled thresholds block."""
    thresholds = VerdictThresholds(*(float(filled[name]) for name in VerdictThresholds._fields))
    return thresholds, float(filled["null_tol"])


def _operator_json(basis: IrrationalBasis, omega: FrequencyVector, hessian: HessianForm, c) -> dict:
    """The JSON forms of basis, omega, hessian and c ("resonant" or an
    ExactNumber) that config.echo and the family provenance share."""
    return {
        "basis": {"names": list(basis.names), "values": list(basis.values)},
        "omega": [[str(x) for x in entry.coeffs] for entry in omega.entries],
        "hessian": hessian.entries.tolist(),
        "c": c if c == "resonant" else [str(x) for x in c.coeffs],
    }


def parse_config(text: str) -> LabConfig:
    """Validate a JSON config; unknown keys are rejected, defaults are
    materialized into the echoed copy.  Each field is parsed and checked
    once, and nothing sized by the dimension is built before omega (d rows)
    and hessian (d^2 entries) have parsed."""
    raw, leaves = _load_json(text)
    if not isinstance(raw, dict):
        raise ConfigError([("<document>", "top level must be an object")])
    errors = [(key, "unknown key") for key in sorted(set(raw) - _TOP_KEYS)]
    merged = {**_DEFAULTS, **{k: v for k, v in raw.items() if k in _TOP_KEYS}}

    # defaults hold valid numbers, so the document's own leaves are checked
    typed = [(path, value, field) for path, value in leaves if (field := _NUMBER_FIELD.fullmatch(path))]
    wrong = [
        (path, f"must be a JSON {field.lastgroup}")
        for path, value, field in typed
        if not (_integer(value) if field["integer"] else _number(value))
    ]
    if wrong:
        raise ConfigError(errors + wrong)
    errors += [
        (path, f"frequency {value} is outside [-{FACTORY_FREQUENCY_MAX}, {FACTORY_FREQUENCY_MAX}]")
        for path, value, field in typed
        if field["integer"] and abs(value) > FACTORY_FREQUENCY_MAX
    ]
    dimension = merged.get("dimension")
    if not (_integer(dimension) and dimension >= 1):
        raise ConfigError(errors + [("dimension", "must be a positive integer")])

    def collect(path, parse, *args):
        """parse(*args), or None after collecting (path, reason) when the
        value is malformed."""
        try:
            return parse(*args)
        except (TypeError, ValueError, LookupError, ZeroDivisionError) as exc:
            errors.extend(exc.errors if isinstance(exc, ConfigError) else [(path, str(exc))])
            return None

    basis = collect("basis", _parse_basis, merged["basis"])
    if basis is None:
        raise ConfigError(errors)
    omega = collect("omega", _parse_omega, merged.get("omega"), dimension, basis)
    for i, entry in enumerate(omega.entries if omega is not None else ()):
        collect(f"omega[{i}]", _check_finite, basis, entry)
    hessian = collect("hessian", _parse_hessian, merged.get("hessian"), dimension)
    c_spec = merged["c"]
    if c_spec != "resonant":
        c_spec = collect("c", lambda row: ExactNumber(rational_row(row, basis.dim)), c_spec)
    factory_alpha0, factory_v = collect("factory", _parse_factory, merged["factory"]) or (None, None)
    if not isinstance(merged["remainder"], bool):
        errors.append(("remainder", "must be a boolean"))
    ladder = collect("h_ladder", parse_ladder, merged["h_ladder"]) or _DEFAULTS["h_ladder"]
    if not (_integer(merged["truncation"]) and merged["truncation"] >= 4):
        errors.append(("truncation", "must be an integer of at least 4"))
    for name, bound in (("delta", math.inf), ("epsilon", 1.0)):
        if not (_number(merged[name]) and 0 < merged[name] < bound):
            errors.append((name, f"must be a number in (0, {bound})"))
    subdomain = merged["subdomain"]
    if not (
        isinstance(subdomain, list)
        and len(subdomain) == 2
        and all(map(_number, subdomain))
        and 0 <= subdomain[0] < subdomain[1] <= 1
    ):
        errors.append(("subdomain", "must be [lo, hi] with 0 <= lo < hi <= 1"))

    grid_raw = merged["grid"]
    if not isinstance(grid_raw, dict) or set(grid_raw) - set(_DEFAULTS["grid"]):
        errors.append(("grid", "must be an object with keys 'points_per_axis' and 'xi'"))
    else:
        grid_raw = {**_DEFAULTS["grid"], **grid_raw}
        points, xi = grid_raw["points_per_axis"], grid_raw["xi"]
        if not (_integer(points) and points >= 2):
            errors.append(("grid.points_per_axis", "must be an integer of at least 2"))
            points = _DEFAULTS["grid"]["points_per_axis"]
        # PhaseSpaceGrid would read a string's characters as covectors
        if xi != "units" and not isinstance(xi, list):
            errors.append(("grid.xi", 'must be "units" or a list of covectors'))
        elif omega is not None and hessian is not None:  # only now does the document bound d
            grid = collect(
                "grid.xi",
                lambda: PhaseSpaceGrid.standard(dimension, points)
                if xi == "units"
                else PhaseSpaceGrid(dimension, points, xi),
            )

    thresholds_raw = merged["thresholds"]
    if not isinstance(thresholds_raw, dict) or set(thresholds_raw) - set(_DEFAULTS["thresholds"]):
        errors.append(("thresholds", f"must be an object with keys among {sorted(_DEFAULTS['thresholds'])}"))
    else:
        merged["thresholds"] = {**_DEFAULTS["thresholds"], **thresholds_raw}
        thresholds, null_tol = collect("thresholds", _parse_thresholds, merged["thresholds"]) or (None, None)
        if null_tol is not None and not 0 < null_tol < 1:
            errors.append(("thresholds.null_tol", "must be a number in (0, 1)"))

    if not (isinstance(merged["out"], str) and merged["out"]):
        errors.append(("out", "must be a nonempty string"))
    if errors:
        raise ConfigError(errors)

    echo = {
        **{key: merged[key] for key in ("dimension", "remainder", "truncation", "thresholds", "out")},
        **_operator_json(basis, omega, hessian, c_spec),
        "factory": None if factory_v is None else {"alpha0": list(factory_alpha0), "v": factory_v.to_json_obj()},
        "h_ladder": list(ladder),
        "delta": float(merged["delta"]),
        "epsilon": float(merged["epsilon"]),
        "subdomain": [float(x) for x in subdomain],
        "grid": {
            "points_per_axis": grid.points_per_axis,
            "xi": "units" if xi == "units" else [list(c) for c in grid.xi_points],
        },
    }
    return LabConfig(
        dimension=dimension,
        basis=basis,
        omega=omega,
        hessian=hessian,
        c_spec=c_spec,
        factory_alpha0=factory_alpha0,
        factory_v=factory_v,
        remainder=echo["remainder"],
        h_ladder=ladder,
        truncation=echo["truncation"],
        delta=echo["delta"],
        epsilon=echo["epsilon"],
        subdomain=tuple(echo["subdomain"]),
        grid=grid,
        thresholds=thresholds,
        null_tol=null_tol,
        out=echo["out"],
        echo=echo,
    )


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


def _exact_as_json(x: ExactNumber, basis: IrrationalBasis) -> dict:
    return {"coords": [str(c) for c in x.coeffs], "value": basis.to_float(x)}


def run_pipeline(config: LabConfig, stages: Sequence[str], out_dir: Path) -> tuple[int, dict]:
    """Run the requested stages, then write every artifact; return (exit,
    report).

    Every refusal comes before any stage runs (see _split_or_refuse).  The
    build, verify and wavefront stages each return their report section,
    checks, notes and (artifact name, writer); the writers run once every
    stage has, so a ConfigError leaves out_dir as it was.  Before they run,
    the file of each skipped stage artifact is removed from out_dir."""
    requested = [s for s in _STAGES if s in set(stages)]
    split = _split_or_refuse(config, requested)
    report: dict = {"stages": requested, "notes": []}
    checks: dict[str, bool] = {}
    echo = canonical_json(config.echo) + "\n"
    writers = {"config.echo": lambda path: path.write_text(echo, encoding="utf-8")}
    if split is not None:
        report["splitting"], report["notes"] = _splitting_stage(config, split)

    built: dict = {}
    for stage, key, failed_check, run_stage in (
        ("build", "quasimode_build", "factory construction", _build_stage),
        ("verify", "quasimode_verify", "quasimode verification", _verify_stage),
        ("wavefront", "wavefront", "wavefront map", _wavefront_stage),
    ):
        if stage not in requested:
            continue
        try:
            if stage != "build" and not built:
                raise _Skipped("no family built")
            report[key], stage_checks, notes, (name, write) = run_stage(config, split, built)
        except _Skipped as skip:
            report[key] = {"status": "skipped", "detail": skip.args[0]}
            report["notes"] += skip.args[1:]
        except (ValueError, ArithmeticError, InvariantViolation) as exc:
            report[key] = {"status": "error", "detail": str(exc)}
            checks[failed_check] = False
        else:
            checks.update(stage_checks)
            report["notes"] += notes
            writers[name] = write
    if "hypotheses" in requested:
        verify = report.get("quasimode_verify", {})
        report["hypotheses"], stage_checks = _hypotheses_stage(config, verify.get("order"))
        checks.update(stage_checks)

    failures = sorted(name for name, ok in checks.items() if not ok)
    status = ("pass" if not failures else "fail") if checks else "no checks requested"
    writers["report.json"] = lambda path: write_report(report, path)
    artifacts = {name: "written" if name in writers else "skipped" for name in _ARTIFACTS}
    report.update(checks=checks, failures=failures, status=status, artifacts=artifacts)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, file in _STAGE_ARTIFACT_FILES.items():
        if name not in writers:
            (out_dir / file).unlink(missing_ok=True)
    for name, write in writers.items():
        write(out_dir / name)
    return (EXIT_PASS if not failures else EXIT_CHECK_FAILED), report


def _split_or_refuse(config, requested):
    """The splitting, when a requested stage needs it.  Raises ConfigError
    for a request the config cannot serve: a wavefront grid and ladder on
    which the mass map of the factory member (whose support is that of v)
    would exceed the budget, or a factory block that does not fit the
    splitting (the length of alpha0, the dimension of v, a truncation whose
    dense Galerkin matrix on the transverse torus would exceed the budget,
    an explicit c that is not resonant with alpha0)."""
    if "wavefront" in requested:
        try:
            check_massmap_budget(config.grid, config.h_ladder, len(config.factory_v or ()))
        except ValueError as exc:
            raise ConfigError([("grid.points_per_axis", str(exc))])
    if not {"split", "build", "verify", "wavefront"} & set(requested):
        return None
    split = split_frequencies(config.omega)
    if "build" not in requested or config.factory_v is None:
        return split
    k = split.orbit_dimension
    if len(config.factory_alpha0) != k:
        raise ConfigError([("factory.alpha0", f"length must equal the orbit dimension {k}")])
    if config.factory_v.dim != config.dimension - k:
        raise ConfigError([("factory.v", "profile dimension must equal dimension - orbit dimension")])
    try:
        check_galerkin_budget(config.dimension - k, config.truncation)
    except ValueError as exc:
        raise ConfigError([("truncation", str(exc))])
    if config.c_spec != "resonant":
        pairing = FrequencyVector(split.omega_tilde).dot(config.factory_alpha0)
        if not (config.c_spec + pairing).is_zero:
            raise ConfigError([("c", "explicit c is not resonant with factory.alpha0")])
    return split


# Hypotheses (A)-(C) hold for every model operator, for these reasons.
_BY_CONSTRUCTION = {
    "A_real_principal_symbol": "symbol is a real polynomial in the momenta by construction",
    "B_real_constant_subprincipal": "subprincipal term is an exact real constant",
    "C_completely_integrable": "model torus carries global action-angle coordinates",
}


def _hypotheses_stage(config, order: Optional[dict]):
    """Hypotheses (A)-(F) of the config: (report section, checks).  (E) is
    the verify stage's order section, when that stage ran."""
    omega_floats = config.omega.to_floats(config.basis)
    det, nondegenerate = bordered_determinant(config.hessian, omega_floats)
    quasiconvex = is_quasiconvex(config.hessian, omega_floats)
    section = {
        **{key: {"pass": True, "detail": detail} for key, detail in _BY_CONSTRUCTION.items()},
        "D_isoenergetically_nondegenerate": {"pass": nondegenerate, "bordered_determinant": det},
        "E_quasimode_order": (
            {"pass": None, "detail": "filled by the verify stage"}
            if order is None
            else {key: order[key] for key in ("pass", "exponent", "exact_kernel")}
        ),
        "F_quasiconvex": {"pass": quasiconvex},
    }
    return section, {"hypothesis (D)": nondegenerate, "hypothesis (F)": quasiconvex}


def _splitting_stage(config, split):
    """The splitting's report section, with the mode resonant with c, and
    the notes on that mode: (section, notes)."""
    notes = []
    if config.c_spec == "resonant":
        resonant = config.factory_alpha0
        if resonant is None:
            notes.append("c declared resonant but no factory block supplies the mode")
    else:
        try:
            resonant = find_resonant_mode(split.omega_tilde, config.c_spec)
        except InvariantViolation as exc:
            notes.append(str(exc))
            resonant = None
        else:
            if resonant is None:
                notes.append("no integer mode is resonant with explicit c")
    section = {
        "relation_lattice": {"rank": split.relations.rank, "rows": split.relations.to_json_obj()},
        "matrix": [list(row) for row in split.matrix],
        "orbit_dimension": split.orbit_dimension,
        "omega_tilde": [_exact_as_json(w, config.basis) for w in split.omega_tilde],
        "resonant_mode": list(resonant) if resonant is not None else None,
    }
    return section, notes


class _Skipped(Exception):
    """A stage without its input: (report detail, *notes)."""


def _build_stage(config, split, built):
    """The factory quasimode of the config, saved as family/; fills built
    with the spec, family and transverse operator the other stages read."""
    if config.factory_v is None:
        raise _Skipped("no factory block in the config", "quasimode stages skipped: no factory block")
    spec, family, op = build_factory_quasimode(
        config.omega, config.hessian, config.basis, split,
        config.factory_alpha0, config.factory_v, config.h_ladder, remainder=config.remainder,
    )
    built.update(spec=spec, family=family, op=op)
    section = {
        "status": "built",
        "c": _exact_as_json(spec.c, config.basis),
        "multiplier_support": len(spec.r),
        "remainder_enabled": config.remainder,
    }
    note = "third-order remainder uses a fixed bounded model realization; only its order is canonical"
    provenance = _operator_json(spec.basis, spec.omega, spec.hessian, spec.c)
    provenance.update(r=spec.r.to_json_obj(), remainder=spec.remainder)
    family_dir = ("family", lambda path: family.save(path, provenance=provenance))
    return section, {}, [note] if config.remainder else [], family_dir


def _verify_stage(config, split, built):
    """Order, concentration, Galerkin and unique-continuation results of the
    built family, with the decay series as decay.csv."""
    spec, family, op = built["spec"], built["family"], built["op"]
    order = verify_quasimode_order(family, spec, config.delta)
    concentration = check_mode_concentration(family, split, config.factory_alpha0, config.epsilon)
    series = [("residual", order.residual_norms)] + [
        ("mode[" + ",".join(str(a) for a in mode) + "]", concentration.mode_fits[mode].values)
        for mode in sorted(concentration.mode_fits)
    ]
    hs = [_format_float(h) for h in family.h_ladder]
    lines = (f"{label},{h},{_format_float(v)}\n" for label, vs in series for h, v in zip(hs, vs))
    null = galerkin_nullspace(op, config.truncation, null_tol=config.null_tol)
    box = [config.subdomain] * (config.dimension - split.orbit_dimension)
    uc_value = unique_continuation_constant(null, box).constant if null.basis else None
    uc_positive = uc_value is not None and uc_value > 0
    section = {
        "order": {
            "residual_norms": list(order.residual_norms),
            "exponent": order.fit.exponent,
            "fit_residual": order.fit.residual,
            "exact_kernel": order.exact_kernel,
            "threshold": order.threshold,
            "pass": order.passed,
        },
        "concentration": {
            "modes": {
                "[" + ",".join(str(a) for a in mode) + "]": {
                    "exponent": fit.exponent,
                    "fit_residual": fit.residual,
                }
                for mode, fit in concentration.mode_fits.items()
            },
            "alpha0_norms": list(concentration.alpha0_norms),
            "alpha0_floor_ok": concentration.alpha0_floor_ok,
            "threshold": concentration.threshold,
            "pass": concentration.passed,
        },
        "galerkin": {
            "truncation": null.truncation,
            "nullspace_dimension": len(null.basis),
            "near_zero_eigenvalues": list(null.eigenvalues),
            "scale": null.scale,
        },
        "unique_continuation": {
            "subdomain": [list(b) for b in box],
            "constant": uc_value,
            "pass": uc_positive,
        },
    }
    checks = {
        "quasimode order (E)": order.passed,
        "mode concentration": concentration.passed and concentration.alpha0_floor_ok,
        "galerkin nullspace": len(null.basis) >= 1,
        "unique continuation": uc_positive,
    }
    return section, checks, [], ("decay.csv", lambda path: _write_csv(path, ("series", "h", "value"), lines))


def _wavefront_stage(config, split, built):
    """Mass map and nonconcentration verdicts of the built family on the
    config's grid, with the masses as massmap.csv."""
    mass_map = wavefront_mass_map(built["family"], config.grid)
    verdicts = nonconcentration_report(mass_map, config.thresholds)
    section = {
        "fills_torus": verdicts.fills_torus,
        "fill_fraction_measured": verdicts.fill_fraction_measured,
        "lagrangian_supported": verdicts.lagrangian_supported,
        "nonempty_interior": verdicts.nonempty_interior,
        "subsequence_min_fill": verdicts.subsequence_min_fill,
        "thresholds": _threshold_values(config.thresholds),
    }
    checks = {
        "fills torus": verdicts.fills_torus,
        "lagrangian supported": verdicts.lagrangian_supported,
        "nonempty interior": verdicts.nonempty_interior,
    }
    axes = range(config.dimension)
    header = [f"x{i}" for i in axes] + [f"xi{i}" for i in axes] + ["h", "mass"]
    massmap = ("massmap.csv", lambda path: _write_csv(path, header, _massmap_chunks(mass_map)))
    return section, checks, [], massmap


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toruslab",
        description="Integrable-torus quasimode laboratory: hypothesis checks, "
        "orbit-closure splitting, factory quasimodes, wavefront verdicts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMAND_STAGES:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="path to the JSON config")
        cmd.add_argument("--out", default=None, help="output directory override")
        cmd.add_argument("--ladder", default=None, help="h ladder override, e.g. '4..12'")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad arguments, 0 after --help
        return EXIT_USAGE if exc.code else EXIT_PASS
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        raw, _ = _load_json(text)
        if isinstance(raw, dict):
            if args.ladder is not None:
                raw["h_ladder"] = args.ladder
            if args.out is not None:
                raw["out"] = args.out
        config = parse_config(json.dumps(raw))
        out_dir = Path(config.out)
        code, report = run_pipeline(config, _COMMAND_STAGES[args.command], out_dir)
    except ConfigError as exc:
        for path, message in exc.errors:
            print(f"config error at {path}: {message}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # only the artifact writers touch the file system here
        print(f"error: cannot write artifacts: {exc}", file=sys.stderr)
        return EXIT_USAGE
    for name, ok in sorted(report.get("checks", {}).items()):
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    print(f"report: {out_dir / 'report.json'}")
    return code


if __name__ == "__main__":
    sys.exit(main())
