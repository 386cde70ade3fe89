"""Command line front end.

Four commands share one flag set: estimate (run the circle sweep and report
every applicable bound), sharp (emit the piecewise family and its checks),
verify (residuals and the measured exponent, with tolerances), and sweep
(bounds over a parameter grid, one CSV row per point).

Exit codes: 0 success, 2 bad specification, 3 ellipticity violation,
4 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .estimator import (
    SweepConfig,
    beta_estimate,
    classical_bound,
    mu_zero_bound,
    nu_zero_bound,
)
from .periodic_fields import CircleSpec
from .reduction import BeltramiPair, EllipticityError, beltrami_to_matrices
from .sharp_family import build_family, build_maps, cd_params
from .stretching import AngularStretching, munu_from_k
from .verify import PolarGrid, beltrami_residual, empirical_holder, weak_form_residual

__all__ = ["JobSpec", "main", "run"]

_EXIT_OK = 0
_EXIT_SPEC = 2
_EXIT_ELLIPTICITY = 3
_EXIT_VERIFY = 4

# the CSV columns of a sweep, whichever of its points fail
_SWEEP_COLUMNS = ("M", "tau", "c", "d", "alpha_target", "beta", "beta_rel_gap", "corollary",
                  "corollary_slack", "classical", "classical_slack", "mu0_max", "nu0_max",
                  "status")


class SpecError(ValueError):
    """Invalid job description (bad flags, config, or coefficient file)."""


@dataclass(frozen=True)
class JobSpec:
    command: str
    M: tuple | None = None
    tau: tuple | None = None
    alpha: float | None = None
    coeff_file: str | None = None
    circles: int | None = None
    radii: tuple | None = None
    weight_pieces: int = 16
    nodes: int = 1024
    out: str | None = None
    format: str = "json"
    tolerance: float = 1e-8
    corrupt_mu: bool = False

    def __post_init__(self):
        if self.command not in ("estimate", "sharp", "verify", "sweep"):
            raise SpecError(f"unknown command {self.command!r}")
        if self.format not in ("json", "csv"):
            raise SpecError(f"format must be json or csv, got {self.format!r}")
        if int(self.weight_pieces) < 1:
            raise SpecError(
                f"weight-pieces must be a positive integer, got {self.weight_pieces}")
        # the library limits: a circle needs 16 nodes, a grid 4 per breakpoint
        if int(self.nodes) < 16:
            raise SpecError(f"nodes must be at least 16, got {self.nodes}")
        if self.command != "verify" and self.nodes < 4 * self.weight_pieces:
            raise SpecError(f"nodes must be at least 4 x weight-pieces "
                            f"= {4 * self.weight_pieces}, got {self.nodes}")
        if self.circles is not None and int(self.circles) < 1:
            raise SpecError(f"circles must be a positive integer, got {self.circles}")
        for r in self.radii or ():
            if not 0.0 < r < math.inf:
                raise SpecError(f"circle radii must be positive and finite, got {r}")
        if not 0.0 < self.tolerance < math.inf:
            raise SpecError(f"tolerance must be positive and finite, got {self.tolerance}")
        # M/tau ranges are checked per use: sweeps report bad grid points
        # row by row instead of refusing the whole scan
        if self.command != "sweep":
            for m in self.M or ():
                if not 1.0 < m < math.inf:
                    raise SpecError(f"M must exceed 1 and be finite, got {m}")
            for t in self.tau or ():
                if not 0.0 <= t <= 1.0:
                    raise SpecError(f"tau must lie in [0, 1], got {t}")
        if self.alpha is not None and not 0.0 < self.alpha <= 1.0:
            raise SpecError(f"alpha must lie in (0, 1], got {self.alpha}")
        sources = [self.M is not None or self.tau is not None,
                   self.alpha is not None,
                   self.coeff_file is not None]
        if self.command != "sweep" and sum(sources) > 1:
            raise SpecError("give exactly one coefficient source: "
                            "--M/--tau, --alpha, or --coeff-file")

    def source(self) -> str:
        if self.coeff_file is not None:
            return "coeff-file"
        if self.alpha is not None:
            return "radial"
        if self.M is not None:
            return "sharp"
        raise SpecError("no coefficient source given "
                        "(use --M/--tau, --alpha, or --coeff-file)")

    def single_M_tau(self):
        m = self.M or ()
        t = self.tau if self.tau is not None else (0.0,)
        if len(m) != 1 or len(t) != 1:
            raise SpecError("this command takes a single --M and --tau value")
        return m[0], t[0]


# ---------------------------------------------------------------------------
# spec assembly


def _float_list(text: str) -> tuple:
    try:
        return tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise SpecError(f"bad numeric list {text!r}") from exc


@functools.cache
def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="beltbound",
        description="Exponent bounds and extremal mappings for planar "
        "first-order elliptic systems with angular coefficients.",
    )
    p.add_argument("--command", choices=["estimate", "sharp", "verify", "sweep"])
    p.add_argument("--config", help="JSON file with job fields; flags override")
    p.add_argument("--M", help="distortion parameter, or comma list for sweeps")
    p.add_argument("--tau", help="interpolation parameter in [0,1], or comma list")
    p.add_argument("--alpha", type=float, help="radial stretch exponent in (0,1]")
    p.add_argument("--coeff-file", help="JSON with breakpoints/mu0/nu0 piece lists")
    p.add_argument("--circles", type=int, help="radius count for the circle lattice")
    p.add_argument("--radii", help="comma list of origin-circle radii (overrides lattice)")
    p.add_argument("--weight-pieces", type=int, help="arcs per weight function")
    p.add_argument("--nodes", type=int, help="angular resolution")
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--format", choices=["json", "csv"])
    p.add_argument("--tolerance", type=float, help="residual tolerance for verify")
    p.add_argument("--corrupt-mu", action="store_true", default=None,
                   help="negative control: flip the sign of mu before verifying "
                   "(no effect when mu vanishes identically)")
    return p


def build_spec(argv) -> JobSpec:
    args = _parser().parse_args(argv)

    fields: dict = {}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                fields.update(_config_fields(json.load(fh)))
        except (OSError, ValueError) as exc:  # unreadable, not JSON, not UTF-8
            raise SpecError(f"cannot read config {args.config}: {exc}") from exc
    for key in ("command", "M", "tau", "alpha", "coeff_file", "circles", "radii",
                "weight_pieces", "nodes", "out", "format", "tolerance",
                "corrupt_mu"):
        v = getattr(args, key)
        if v is not None:
            fields[key] = v
    if "command" not in fields:
        raise SpecError("no command given (use --command or a config file)")
    for key in ("M", "tau", "radii"):
        if key in fields and fields[key] is not None:
            v = fields[key]
            if isinstance(v, str):
                fields[key] = _float_list(v)
            elif isinstance(v, (int, float)) and not isinstance(v, bool):
                fields[key] = (float(v),)
            elif isinstance(v, list) and all(_is_number(x) for x in v):
                fields[key] = tuple(float(x) for x in v)
            else:
                raise SpecError(f"{key} must be a number or a list of numbers, got {v!r}")
    unknown = set(fields) - set(JobSpec.__dataclass_fields__)
    if unknown:
        raise SpecError(f"unknown config fields: {sorted(unknown)}")
    return JobSpec(**fields)


# the JSON type of each config field: what its flag parses to
_CONFIG_TYPES = {"command": str, "alpha": float, "coeff_file": str, "circles": int,
                 "weight_pieces": int, "nodes": int, "out": str, "format": str,
                 "tolerance": float, "corrupt_mu": bool}


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_json_type(v, kind) -> bool:
    if kind is float:
        return _is_number(v)
    return isinstance(v, kind) and (kind is bool or not isinstance(v, bool))


def _config_fields(doc) -> dict:
    """The job fields of a config file; null means absent."""
    if not isinstance(doc, dict):
        raise SpecError("a config file holds one JSON object of job fields")
    fields = {k: v for k, v in doc.items() if v is not None}
    for key, v in fields.items():
        if key in _CONFIG_TYPES and not _is_json_type(v, _CONFIG_TYPES[key]):
            raise SpecError(f"config field {key} must be a JSON "
                            f"{_CONFIG_TYPES[key].__name__}, got {v!r}")
    return fields


def _load_coeff_file(path: str, node_count: int) -> BeltramiPair:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SpecError(f"cannot read coefficient file {path}: {exc}") from exc
    try:
        breakpoints = [float(b) for b in data["breakpoints"]]
        mu0 = [float(v) for v in data["mu0"]]
        nu0 = [float(v) for v in data["nu0"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(
            f"coefficient file needs numeric lists breakpoints/mu0/nu0: {exc}"
        ) from exc
    if not len(breakpoints) == len(mu0) == len(nu0):
        raise SpecError("breakpoints, mu0, nu0 must have equal lengths")
    return BeltramiPair.from_profiles(breakpoints, mu0, nu0, node_count=node_count)


def _build_pair(spec: JobSpec) -> BeltramiPair:
    src = spec.source()
    if src == "coeff-file":
        return _load_coeff_file(spec.coeff_file, spec.nodes)
    if src == "radial":
        return BeltramiPair.radial_stretch(spec.alpha, node_count=spec.nodes)
    m, t = spec.single_M_tau()
    return build_family(m, t, node_count=spec.nodes).pair()


def _sweep_config(spec: JobSpec) -> SweepConfig:
    base = dict(weight_pieces=spec.weight_pieces)
    if spec.radii is not None:
        circles = tuple(CircleSpec(0.0, r, resolution=spec.nodes) for r in spec.radii)
        return SweepConfig(circles=circles, **base)
    if spec.circles is not None:
        return SweepConfig.disk_lattice(radius_count=spec.circles,
                                        resolution=spec.nodes, **base)
    return SweepConfig.origin(resolution=spec.nodes, **base)


# ---------------------------------------------------------------------------
# serialization


_JSON_STR = json.encoder.encode_basestring_ascii


def _json_float(v) -> str:
    if math.isfinite(v):
        return float.__repr__(v)
    if v != v:
        return "NaN"
    return "Infinity" if v > 0 else "-Infinity"


def _json_parts(obj, nl: str, out: list) -> None:
    """Append to out the text of obj as json.dumps(..., indent=2) writes it,
    nl being a newline and the indent of obj's line.  Complex numbers are
    written as [re, im], arrays as their tolist() and numpy scalars as
    Python ones; dict keys must be strings."""
    if isinstance(obj, float):
        out.append(_json_float(obj))
    elif isinstance(obj, str):
        out.append(_JSON_STR(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner, sep = nl + "  ", "{"
        for key, v in obj.items():
            out += (sep, inner, _JSON_STR(key), ": ")
            _json_parts(v, inner, out)
            sep = ","
        out.append(nl + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner, sep = nl + "  ", "["
        for v in obj:
            out += (sep, inner)
            _json_parts(v, inner, out)
            sep = ","
        out.append(nl + "]")
    elif isinstance(obj, complex):
        _json_parts((obj.real, obj.imag), nl, out)
    elif isinstance(obj, np.ndarray):
        _json_parts(obj.tolist(), nl, out)
    elif isinstance(obj, (np.floating, np.integer, np.bool_)):
        _json_parts(obj.item(), nl, out)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _json_text(payload) -> str:
    """payload as json.dumps(payload, indent=2) writes it, in one pass."""
    out = []
    _json_parts(payload, "\n", out)
    return "".join(out)


def _flatten(payload, prefix=""):
    if isinstance(payload, np.ndarray):
        payload = payload.tolist()
    if isinstance(payload, complex):
        payload = (payload.real, payload.imag)
    rows = []
    if isinstance(payload, dict):
        for k, v in payload.items():
            rows.extend(_flatten(v, f"{prefix}{k}." if prefix else f"{k}."))
    elif isinstance(payload, (list, tuple)):
        for i, v in enumerate(payload):
            rows.extend(_flatten(v, f"{prefix}{i}."))
    else:
        rows.append((prefix[:-1], payload))
    return rows


def _format_value(v):
    if isinstance(v, (np.floating, np.integer, np.bool_)):
        v = v.item()
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return str(v)
    if isinstance(v, int):
        return str(v)
    return format(v, ".17e")


def _emit(payload, spec: JobSpec) -> None:
    """Write payload to spec.out or stdout: JSON exactly as
    json.dumps(payload, indent=2) writes it (see _json_parts), or CSV, one
    row per sweep point or one key/value row per leaf of the payload."""
    if spec.format == "json":
        text = _json_text(payload) + "\n"
    elif isinstance(payload, list):  # sweep rows; a failed point leaves its numbers empty
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(_SWEEP_COLUMNS)
        for row in payload:
            w.writerow([_format_value(row[k]) if k in row else "" for k in _SWEEP_COLUMNS])
        text = buf.getvalue()
    else:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["key", "value"])
        for key, v in _flatten(payload):
            w.writerow([key, _format_value(v)])
        text = buf.getvalue()
    if spec.out is None:
        sys.stdout.write(text)
    else:
        with open(spec.out, "w") as fh:
            fh.write(text)


def _circle_payload(c: CircleSpec) -> dict:
    return {"center": c.center, "radius": c.radius, "resolution": c.resolution}


_CIRCLE_KEYS = ("center", "radius", "value", "family", "evaluations", "solver_status",
                "optimality_residual", "nodes", "arcs")


def _report_payload(report) -> dict:
    w = report.attaining_weights
    lo_phi, hi_phi = w.phi.values.min(), w.phi.values.max()
    lo_psi, hi_psi = w.psi.values.min(), w.psi.values.max()
    return {
        "bound": report.bound,
        "sup_value": report.sup_value,
        "certified_value": report.certified_value,
        "attaining_circle": _circle_payload(report.attaining_circle),
        "attaining_weights": {
            "phi_range": [float(lo_phi), float(hi_phi)],
            "psi_range": [float(lo_psi), float(hi_psi)],
        },
        "circle_count": len(report.per_circle),
        "per_circle": [{key: rec[key] for key in _CIRCLE_KEYS} for rec in report.per_circle],
    }


def _vanishes(field) -> bool:
    return bool(np.max(np.abs(field.values)) < 1e-14)


# ---------------------------------------------------------------------------
# commands


def cmd_estimate(spec: JobSpec) -> int:
    pair = _build_pair(spec)
    cfg = _sweep_config(spec)
    report = beta_estimate(pair, cfg)
    coro = report.corollary
    classical = classical_bound(pair)
    bounds = {"beta": report.bound, "corollary": coro, "classical": classical}
    diagnostics = {
        "beta_sup_value": report.sup_value,
        "corollary_slack": report.bound - coro,
        "classical_slack": report.bound - classical,
    }
    if pair.is_angular:
        mu0, nu0 = munu_from_k(pair.k)
        if _vanishes(mu0):
            bounds["mu_zero"] = mu_zero_bound(pair, cfg)
            diagnostics["mu_zero_gap"] = report.bound - bounds["mu_zero"]
        if _vanishes(nu0):
            bounds["nu_zero"] = nu_zero_bound(pair, cfg)
            diagnostics["nu_zero_gap"] = report.bound - bounds["nu_zero"]
    payload = {
        "command": "estimate",
        "source": spec.source(),
        "distortion": pair.distortion_bound(),
        "bounds": bounds,
        "diagnostics": diagnostics,
        "ordering": {
            "beta_ge_corollary": report.bound >= coro - 1e-12,
            "beta_ge_classical": report.bound >= classical - 1e-12,
        },
        "report": _report_payload(report),
    }
    _emit(payload, spec)
    return _EXIT_OK


def cmd_sharp(spec: JobSpec) -> int:
    m, t = spec.single_M_tau()
    fam = build_family(m, t, node_count=spec.nodes)
    pair = fam.pair()
    residual = beltrami_residual(fam.stretch, pair)
    cfg = SweepConfig.origin(resolution=spec.nodes, weight_pieces=spec.weight_pieces)
    beta = beta_estimate(pair, cfg).bound
    step = max(1, fam.grid.node_count // 256)
    sl = slice(None, None, step)
    payload = {
        "command": "sharp",
        "M": m,
        "tau": t,
        "c": fam.c,
        "d": fam.d,
        "alpha": fam.alpha,
        "breakpoints": list(fam.breakpoints),
        "k1_pieces": [float(v) for v in fam.k.k1.piece_values()],
        "k2_pieces": [float(v) for v in fam.k.k2.piece_values()],
        "mu0_pieces": [float(v) for v in fam.mu0.piece_values()],
        "nu0_pieces": [float(v) for v in fam.nu0.piece_values()],
        "checks": {
            "equation_residual": residual.max_residual,
            "residual_ok": residual.max_residual < spec.tolerance,
            "beta": beta,
            "beta_vs_alpha_rel": abs(beta - fam.alpha) / fam.alpha,
            "mu0_vanishes": _vanishes(fam.mu0),
            "nu0_vanishes": _vanishes(fam.nu0),
        },
        "samples": {
            "angle": fam.grid.nodes[sl],
            "theta1": fam.stretch.eta1.values[sl],
            "theta2": fam.stretch.eta2.values[sl],
        },
    }
    _emit(payload, spec)
    return _EXIT_OK


def cmd_verify(spec: JobSpec) -> int:
    src = spec.source()
    if src == "coeff-file":
        raise SpecError("verify needs a constructed map: use --alpha or --M/--tau")
    if src == "radial":
        stretch = AngularStretching.radial(spec.alpha, node_count=spec.nodes)
        pair = BeltramiPair.radial_stretch(spec.alpha, node_count=spec.nodes)
        expected = spec.alpha
        breakpoints = None

        def u_fn(z, a=spec.alpha):
            return np.abs(z) ** a * np.cos(np.angle(z))

    else:
        m, t = spec.single_M_tau()
        fam = build_family(m, t, node_count=spec.nodes)
        stretch, u_fn = build_maps(fam)
        pair = fam.pair()
        expected = fam.alpha
        breakpoints = fam.breakpoints
    if spec.corrupt_mu:
        base = pair

        def flipped_mu(z):
            mu, nu = base.munu(z)
            return -mu, nu

        pair = BeltramiPair.from_callables(flipped_mu, real_nu=base.real_nu)
    residual = beltrami_residual(stretch, pair)
    matrices = beltrami_to_matrices(pair)
    grid = PolarGrid.annulus(radius_count=16, node_count=min(spec.nodes, 256),
                             breakpoints=breakpoints)
    weak = weak_form_residual(u_fn, matrices.B, grid, refinements=2)
    exponent, fit = empirical_holder(stretch)
    checks = {
        "equation_residual": {
            "value": residual.max_residual,
            "tolerance": spec.tolerance,
            "ok": residual.max_residual < spec.tolerance,
        },
        "weak_form": {
            "value": weak.max_residual,
            "slope": weak.slope,
            "ok": weak.slope is not None and weak.slope >= 1.0,
        },
        "empirical_exponent": {
            "value": exponent,
            "expected": expected,
            "r_squared": fit["r_squared"],
            "ok": abs(exponent - expected) <= 0.01,
        },
    }
    payload = {
        "command": "verify",
        "source": src,
        "corrupt_mu": spec.corrupt_mu,
        "checks": checks,
        "passed": all(c["ok"] for c in checks.values()),
    }
    _emit(payload, spec)
    return _EXIT_OK if payload["passed"] else _EXIT_VERIFY


def _sweep_row(m: float, t: float, spec: JobSpec) -> dict:
    row = {"M": m, "tau": t}
    try:
        c, d = cd_params(m, t)
        fam = build_family(m, t, node_count=spec.nodes)
        pair = fam.pair()
        cfg = SweepConfig.origin(resolution=spec.nodes,
                                 weight_pieces=spec.weight_pieces)
        report = beta_estimate(pair, cfg)
        beta, coro = report.bound, report.corollary
        classical = classical_bound(pair)
        row.update(
            c=c,
            d=d,
            alpha_target=d / c,
            beta=beta,
            beta_rel_gap=abs(beta - d / c) / (d / c),
            corollary=coro,
            corollary_slack=beta - coro,
            classical=classical,
            classical_slack=beta - classical,
            mu0_max=float(np.max(np.abs(fam.mu0.values))),
            nu0_max=float(np.max(np.abs(fam.nu0.values))),
            status="ok",
        )
    except (ValueError, OverflowError) as exc:  # spec, ellipticity, range
        row["status"] = f"error: {exc}"
    return row


def cmd_sweep(spec: JobSpec) -> int:
    ms = spec.M or ()
    ts = spec.tau if spec.tau is not None else (0.0,)
    points = [(m, t) for t in ts for m in ms]
    if not points:
        raise SpecError("empty sweep grid: give at least one --M value")
    rows = [_sweep_row(m, t, spec) for m, t in points]
    _emit(rows, spec)
    return _EXIT_OK if any(r["status"] == "ok" for r in rows) else _EXIT_VERIFY


# ---------------------------------------------------------------------------


def run(argv=None) -> int:
    try:
        spec = build_spec(sys.argv[1:] if argv is None else argv)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_SPEC
    except SystemExit as exc:  # argparse rejects a flag value, or -h
        return exc.code if isinstance(exc.code, int) else _EXIT_SPEC
    handlers = {
        "estimate": cmd_estimate,
        "sharp": cmd_sharp,
        "verify": cmd_verify,
        "sweep": cmd_sweep,
    }
    try:
        return handlers[spec.command](spec)
    except EllipticityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_ELLIPTICITY
    except ValueError as exc:  # a spec error, or a library limit no check mirrors
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_SPEC
    except OverflowError as exc:
        print(f"error: parameters out of floating-point range ({exc})", file=sys.stderr)
        return _EXIT_SPEC


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
