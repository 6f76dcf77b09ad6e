"""Command-line front end: reproducible runs of every computation.

Subcommands
-----------

energy        E with its error estimate
gradient      first variation against a provided or synthetic field
hessian-form  second variation against two fields
density       pair-grid export of the density / G / H, optional beta weight
limits        diagonal-limit extrapolation reports
norms         seminorm reports for the tangent and the test field
flow          projected gradient descent with trace output
verify        oracle suites (finite differences, limits, circle forms, norms)

All results are printed as sorted JSON on stdout (float repr is
shortest-roundtrip, so identical configurations and seeds reproduce
bit-identical bytes); errors are one line ``error: <message>`` on stderr.
Exit codes: 0 success, 1 validation error, 2 numerical failure.
"""

import argparse
import contextlib
import json
import sys
from dataclasses import dataclass

from .curve import (
    Field,
    _float_array,
    _read_rows,
    circle,
    ellipse,
    load_curve,
    random_curve,
    random_field,
)
from .errors import NumericalError, ValidationError
from .flow import circle_distance, run_flow
from .kernels import EnergyParams
from .norms import (
    gagliardo_seminorm,
    holder_seminorm,
    product_seminorm_check,
    sobolev_linf_norm,
)
from .quadrature import (
    density_grid,
    energy,
    first_variation,
    save_grid_csv,
    second_variation,
)
from .verify import (
    circle_reference,
    diagonal_limit,
    fd_energy_gradient,
    fd_energy_hessian,
    neville_h2,
)

__all__ = ["RunConfig", "main"]

_SUITES = ("fd", "limits", "circle", "norms", "all")


@dataclass
class RunConfig:
    """Validated parameters of one CLI invocation."""

    command: str
    params: EnergyParams
    curve_path: str = None
    M: int = None
    band: int = 2
    phi_spec: str = "synthetic:6"
    psi_spec: str = "synthetic:6"
    out: str = None
    seed: int = 0
    suite: str = "all"
    beta_requested: bool = False


def _parser():
    ap = argparse.ArgumentParser(
        prog="ohara",
        description="O'Hara-type (alpha, p) knot energies on closed curves",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("energy", "energy value with error estimate"),
        ("gradient", "first variation along a field"),
        ("hessian-form", "second variation along two fields"),
        ("density", "pair-grid export of density/G/H"),
        ("limits", "diagonal-limit reports"),
        ("norms", "seminorm reports"),
        ("flow", "projected gradient descent"),
        ("verify", "oracle suites"),
    ]:
        sp = sub.add_parser(name, help=helptext)
        sp.add_argument("--curve", metavar="PATH", default=None)
        sp.add_argument("--alpha", type=float, default=2.0)
        sp.add_argument("--p", type=float, default=1.0)
        sp.add_argument("--beta", type=float, default=None)
        sp.add_argument("--M", type=int, default=None)
        sp.add_argument("--band", type=int, default=2)
        sp.add_argument("--phi", metavar="PATH|synthetic:K", default="synthetic:6")
        sp.add_argument("--psi", metavar="PATH|synthetic:K", default="synthetic:7")
        sp.add_argument("--out", metavar="PATH", default=None)
        sp.add_argument("--seed", type=int, default=0)
        if name == "density":
            sp.add_argument("--which", choices=("density", "g", "h"), default="density")
        if name == "verify":
            sp.add_argument("--suite", choices=_SUITES, default="all")
    return ap


def _config(args):
    params = EnergyParams(args.alpha, args.p, beta=args.beta)
    if args.seed < 0:
        raise ValidationError("seed must be >= 0")
    return RunConfig(
        command=args.command,
        params=params,
        curve_path=args.curve,
        M=args.M,
        band=args.band,
        phi_spec=args.phi,
        psi_spec=args.psi,
        out=args.out,
        seed=args.seed,
        suite=getattr(args, "suite", "all"),
        beta_requested=args.beta is not None,
    )


def _need_curve(cfg):
    if cfg.curve_path is None:
        raise ValidationError("this command requires --curve PATH")
    return load_curve(cfg.curve_path, M=cfg.M)


def _load_field(curve, spec, seed):
    """A field from ``synthetic:K`` (seeded trig noise) or a JSON/CSV file."""
    if spec.startswith("synthetic:"):
        try:
            modes = int(spec.split(":", 1)[1])
        except ValueError:
            raise ValidationError("synthetic field spec must be synthetic:K")
        if modes < 1:
            raise ValidationError("synthetic field needs K >= 1 modes")
        return random_field(curve, seed=seed, modes=modes)
    try:
        with open(spec) as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError("cannot read field file %s: %s" % (spec, exc))
    if text.lstrip().startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError("malformed field JSON: %s" % exc)
        key = "values" if "values" in doc else "points"
        if key not in doc:
            raise ValidationError("field JSON must contain 'values' (or 'points')")
        vals = _float_array(doc[key], "field " + key)
    else:
        vals = _read_rows(text, "field file")
        if vals.ndim == 2 and vals.shape[1] == 1:
            vals = vals[:, 0]
    return Field(curve, vals)


@contextlib.contextmanager
def _writing(path):
    """Turn a failure to write ``path`` into a :class:`ValidationError`."""
    try:
        yield
    except OSError as exc:
        raise ValidationError("cannot write %s: %s" % (path, exc))


def _emit(doc, out):
    """Write ``--out`` first, so a bad path prints nothing to stdout."""
    text = json.dumps(doc, sort_keys=True, indent=2)
    if out is not None:
        with _writing(out), open(out, "w") as fh:
            fh.write(text + "\n")
    print(text)


# -- subcommand bodies -------------------------------------------------------


def _cmd_energy(cfg):
    cv = _need_curve(cfg)
    value, est = energy(cv, cfg.params, band=cfg.band, with_estimate=True)
    _emit(
        {
            "E": value,
            "estimate": est,
            "alpha": cfg.params.alpha,
            "p": cfg.params.p,
            "M": cv.M,
            "band": cfg.band,
            "L": cv.L,
        },
        cfg.out,
    )
    return 0


def _cmd_gradient(cfg):
    cv = _need_curve(cfg)
    phi = _load_field(cv, cfg.phi_spec, cfg.seed)
    value = first_variation(cv, phi, cfg.params, band=cfg.band)
    _emit(
        {"delta_E": value, "phi": cfg.phi_spec, "seed": cfg.seed, "M": cv.M},
        cfg.out,
    )
    return 0


def _cmd_hessian(cfg):
    cv = _need_curve(cfg)
    phi = _load_field(cv, cfg.phi_spec, cfg.seed)
    psi = _load_field(cv, cfg.psi_spec, cfg.seed + 1)
    value = second_variation(cv, phi, psi, cfg.params, band=cfg.band)
    _emit(
        {
            "delta2_E": value,
            "phi": cfg.phi_spec,
            "psi": cfg.psi_spec,
            "seed": cfg.seed,
            "M": cv.M,
        },
        cfg.out,
    )
    return 0


def _cmd_density(cfg, which):
    cv = _need_curve(cfg)
    phi = psi = None
    if which in ("g", "h"):
        phi = _load_field(cv, cfg.phi_spec, cfg.seed)
    if which == "h":
        psi = _load_field(cv, cfg.psi_spec, cfg.seed + 1)
    beta = cfg.params.beta if cfg.beta_requested else None
    grid = density_grid(
        cv, cfg.params, which=which, beta=beta, phi=phi, psi=psi, band=cfg.band
    )
    if cfg.out is not None:
        with _writing(cfg.out):
            save_grid_csv(grid, cfg.out)
    doc = grid.summary()
    doc.update({"M": cv.M, "band": cfg.band, "beta": beta, "csv": cfg.out})
    _emit(doc, None)
    return 0


def _cmd_limits(cfg):
    cv = _need_curve(cfg)
    phi = _load_field(cv, cfg.phi_spec, cfg.seed)
    psi = _load_field(cv, cfg.psi_spec, cfg.seed + 1)
    kinds = ["m_alpha", "density", "n_tau", "r1", "r2", "s1", "s2", "s3", "s4", "s5"]
    reports = []
    for idx in (0, cv.M // 8, cv.M // 3):
        s = cv.s[idx]
        for which in kinds:
            reports.append(diagonal_limit(cv, phi, psi, cfg.params, s, which).as_dict())
    _emit({"reports": reports}, cfg.out)
    return 0


def _cmd_norms(cfg):
    cv = _need_curve(cfg)
    phi = _load_field(cv, cfg.phi_spec, cfg.seed)
    pr = cfg.params
    q = 2.0 * pr.p
    tau = cv.tau_field
    dphi = phi.deriv
    doc = {
        "sigma": pr.sigma,
        "q": q,
        "beta": pr.beta,
        "tau": {
            "gagliardo": gagliardo_seminorm(tau, pr.sigma, q),
            "holder": holder_seminorm(tau, pr.beta),
            "sobolev_linf": sobolev_linf_norm(tau, pr.sigma, q),
        },
        "phi_deriv": {
            "gagliardo": gagliardo_seminorm(dphi, pr.sigma, q),
            "holder": holder_seminorm(dphi, pr.beta),
            "sobolev_linf": sobolev_linf_norm(dphi, pr.sigma, q),
        },
        "product_check": product_seminorm_check(cv, phi),
    }
    _emit(doc, cfg.out)
    return 0


def _cmd_flow(cfg):
    cv = _need_curve(cfg)
    snap = cfg.out + ".steps" if cfg.out is not None else None
    with _writing(cfg.out):
        state = run_flow(
            cv,
            cfg.params,
            steps=60,
            K=8,
            trace_path=cfg.out,
            snapshot_dir=snap,
        )
    _emit(
        {
            "steps_accepted": state.step,
            "energy_initial": state.energies[0],
            "energy_final": state.energies[-1],
            "halted": state.halted,
            "diagnostic": state.diagnostic,
            "circle_distance": circle_distance(state.curve),
            "trace": cfg.out,
        },
        None,
    )
    return 0


def _suite_fd(cfg):
    cv = (
        load_curve(cfg.curve_path, M=cfg.M)
        if cfg.curve_path is not None
        else random_curve(cfg.seed, M=cfg.M or 192, n=3)
    )
    phi = _load_field(cv, cfg.phi_spec, cfg.seed)
    psi = _load_field(cv, cfg.psi_spec, cfg.seed + 1)
    fv = first_variation(cv, phi, cfg.params, band=cfg.band)
    _, rich = fd_energy_gradient(cv, phi, cfg.params)
    gap_g = abs(fv - rich) / max(abs(rich), 1.0e-300)
    sv = second_variation(cv, phi, psi, cfg.params, band=cfg.band)
    fh = fd_energy_hessian(cv, phi, psi, cfg.params)
    gap_h = abs(sv - fh) / max(abs(fh), 1.0e-300)
    return {
        "first_variation": fv,
        "fd_gradient": rich,
        "gradient_rel_gap": gap_g,
        "second_variation": sv,
        "fd_hessian": fh,
        "hessian_rel_gap": gap_h,
        "max_rel_gap": max(gap_g, gap_h),
    }, max(gap_g / 1.0e-6, gap_h / 1.0e-4)


def _suite_limits(cfg):
    worst = 0.0
    rows = []
    for cv in (circle(cfg.M or 256), ellipse(2.0, 1.0, cfg.M or 256)):
        phi = random_field(cv, seed=cfg.seed)
        psi = random_field(cv, seed=cfg.seed + 1)
        for which in ("m_alpha", "r1", "r2", "s1", "s2", "s3", "s4", "s5"):
            rep = diagonal_limit(cv, phi, psi, cfg.params, cv.s[cv.M // 8], which)
            gap = rep.gap_rel if rep.gap_rel is not None else rep.gap_abs
            worst = max(worst, gap)
            rows.append(rep.as_dict())
    return {"max_rel_gap": worst, "reports": rows}, worst / 1.0e-4


def _suite_circle(cfg):
    M = cfg.M or 256
    cv = circle(M)
    pr = cfg.params
    e, est = energy(cv, pr, band=cfg.band, with_estimate=True)
    hs = [cv.L / 16.0 / 2.0**k for k in range(6)]
    tab = circle_reference(pr.alpha, pr.p, hs)
    direct = neville_h2(hs, [r["weighted"] for r in tab["rows"]])
    rep = diagonal_limit(cv, None, None, pr, 0.0, "density")
    gap = abs(direct - rep.extrapolated) / max(abs(direct), 1.0e-300)
    return {
        "E": e,
        "estimate": est,
        "weighted_limit_direct": direct,
        "weighted_limit_path": rep.extrapolated,
        "weighted_limit_reference": tab["limit"],
        "two_route_rel_gap": gap,
    }, gap / 1.0e-6


def _suite_norms(cfg):
    cv = circle(cfg.M or 256)
    phi = random_field(cv, seed=cfg.seed)
    chk = product_seminorm_check(cv, phi)
    margin = chk["margin"]
    return {"product_check": chk}, (1.0 if margin < -1.0e-10 else 0.0)


def _cmd_verify(cfg):
    runs = {
        "fd": _suite_fd,
        "limits": _suite_limits,
        "circle": _suite_circle,
        "norms": _suite_norms,
    }
    names = list(runs) if cfg.suite == "all" else [cfg.suite]
    doc = {}
    failed = False
    for name in names:
        body, badness = runs[name](cfg)
        body["pass"] = bool(badness <= 1.0)
        failed = failed or not body["pass"]
        doc[name] = body
    _emit(doc, cfg.out)
    if failed:
        raise NumericalError("verify suite failed: %s" % ", ".join(
            n for n in names if not doc[n]["pass"]
        ))
    return 0


def main(argv=None):
    """Entry point; returns the process exit code."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        cfg = _config(args)
        if cfg.command == "energy":
            return _cmd_energy(cfg)
        if cfg.command == "gradient":
            return _cmd_gradient(cfg)
        if cfg.command == "hessian-form":
            return _cmd_hessian(cfg)
        if cfg.command == "density":
            return _cmd_density(cfg, args.which)
        if cfg.command == "limits":
            return _cmd_limits(cfg)
        if cfg.command == "norms":
            return _cmd_norms(cfg)
        if cfg.command == "flow":
            return _cmd_flow(cfg)
        if cfg.command == "verify":
            return _cmd_verify(cfg)
        raise ValidationError("unknown command %r" % (cfg.command,))
    except ValidationError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    except NumericalError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
