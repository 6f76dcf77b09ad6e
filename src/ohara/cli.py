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
import os
import sys

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

__all__ = ["main"]


def _parser():
    ap = argparse.ArgumentParser(
        prog="ohara",
        description="O'Hara-type (alpha, p) knot energies on closed curves",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, helptext) in _COMMANDS.items():
        sp = sub.add_parser(name, help=helptext)
        sp.add_argument("--curve", metavar="PATH", default=None)
        sp.add_argument("--alpha", type=float, default=2.0)
        sp.add_argument("--p", type=float, default=1.0)
        sp.add_argument("--beta", type=float, default=None)
        sp.add_argument(
            "--M", type=int, default=None,
            help="resample the curve to M points; for verify, the sample count "
                 "of its test curves (default 256; the limits suite builds its "
                 "2:1 ellipse on at least %d)" % _ELLIPSE_MIN_M,
        )
        sp.add_argument("--band", type=int, default=2)
        sp.add_argument("--phi", metavar="PATH|synthetic:K", default="synthetic:6")
        sp.add_argument("--psi", metavar="PATH|synthetic:K", default="synthetic:7")
        sp.add_argument("--out", metavar="PATH", default=None)
        sp.add_argument("--seed", type=int, default=0)
        if name == "density":
            sp.add_argument("--which", choices=("density", "g", "h"), default="density")
        if name == "verify":
            sp.add_argument("--suite", choices=(*_SUITES, "all"), default="all")
    return ap


def _need_curve(args):
    if args.curve is None:
        raise ValidationError("this command requires --curve PATH")
    return load_curve(args.curve, M=args.M)


def _load_field(curve, spec, seed):
    """A vector field from ``synthetic:K`` (seeded trig noise) or a file.

    A field file holds an ``(M, n)`` array, one row of ``n`` coordinates per
    curve sample: JSON ``{"values": [[...], ...]}`` (or ``"points"``) or CSV
    rows.  Any other shape raises :class:`ValidationError`.
    """
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
    if vals.ndim in (1, 2) and vals.shape != (curve.M, curve.n):
        # Field rejects the other ranks itself
        raise ValidationError(
            "field file holds a %s array, not (M, n) = (%d, %d): one row of %d "
            "coordinates per sample" % (vals.shape, curve.M, curve.n, curve.n)
        )
    return Field(curve, vals)


@contextlib.contextmanager
def _writing(path):
    """Turn a failure to write ``path`` into a :class:`ValidationError`."""
    try:
        yield
    except OSError as exc:
        raise ValidationError("cannot write %s: %s" % (path, exc))


def _emit(doc, out):
    """Write ``--out`` first, so a bad path prints nothing to stdout.

    A reader that closes stdout early (``ohara verify ... | head``) ends the
    output quietly: the rest of it goes to the null device.
    """
    text = json.dumps(doc, sort_keys=True, indent=2)
    if out is not None:
        with _writing(out), open(out, "w") as fh:
            fh.write(text + "\n")
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


# -- subcommand bodies: each takes the parsed arguments and their params -----


def _cmd_energy(args, params):
    cv = _need_curve(args)
    value, est = energy(cv, params, band=args.band, with_estimate=True)
    _emit(
        {
            "E": value,
            "estimate": est,
            "alpha": params.alpha,
            "p": params.p,
            "M": cv.M,
            "band": args.band,
            "L": cv.L,
        },
        args.out,
    )
    return 0


def _cmd_gradient(args, params):
    cv = _need_curve(args)
    phi = _load_field(cv, args.phi, args.seed)
    value = first_variation(cv, phi, params, band=args.band)
    _emit(
        {"delta_E": value, "phi": args.phi, "seed": args.seed, "M": cv.M},
        args.out,
    )
    return 0


def _cmd_hessian(args, params):
    cv = _need_curve(args)
    phi = _load_field(cv, args.phi, args.seed)
    psi = _load_field(cv, args.psi, args.seed + 1)
    value = second_variation(cv, phi, psi, params, band=args.band)
    _emit(
        {
            "delta2_E": value,
            "phi": args.phi,
            "psi": args.psi,
            "seed": args.seed,
            "M": cv.M,
        },
        args.out,
    )
    return 0


def _cmd_density(args, params):
    cv = _need_curve(args)
    phi = psi = None
    if args.which in ("g", "h"):
        phi = _load_field(cv, args.phi, args.seed)
    if args.which == "h":
        psi = _load_field(cv, args.psi, args.seed + 1)
    beta = args.beta
    grid = density_grid(
        cv, params, which=args.which, beta=beta, phi=phi, psi=psi, band=args.band
    )
    if args.out is not None:
        with _writing(args.out):
            save_grid_csv(grid, args.out)
    doc = grid.summary()
    doc.update({"M": cv.M, "band": args.band, "beta": beta, "csv": args.out})
    _emit(doc, None)
    return 0


def _cmd_limits(args, params):
    cv = _need_curve(args)
    phi = _load_field(cv, args.phi, args.seed)
    psi = _load_field(cv, args.psi, args.seed + 1)
    kinds = ["m_alpha", "density", "n_tau", "r1", "r2", "s1", "s2", "s3", "s4", "s5"]
    reports = []
    for idx in (0, cv.M // 8, cv.M // 3):
        s = cv.s[idx]
        for which in kinds:
            reports.append(diagonal_limit(cv, phi, psi, params, s, which).as_dict())
    _emit({"reports": reports}, args.out)
    return 0


def _cmd_norms(args, params):
    cv = _need_curve(args)
    phi = _load_field(cv, args.phi, args.seed)
    q = 2.0 * params.p
    tau = cv.tau_field
    dphi = phi.deriv
    doc = {
        "sigma": params.sigma,
        "q": q,
        "beta": params.beta,
        "tau": {
            "gagliardo": gagliardo_seminorm(tau, params.sigma, q),
            "holder": holder_seminorm(tau, params.beta),
            "sobolev_linf": sobolev_linf_norm(tau, params.sigma, q),
        },
        "phi_deriv": {
            "gagliardo": gagliardo_seminorm(dphi, params.sigma, q),
            "holder": holder_seminorm(dphi, params.beta),
            "sobolev_linf": sobolev_linf_norm(dphi, params.sigma, q),
        },
        "product_check": product_seminorm_check(cv, phi),
    }
    _emit(doc, args.out)
    return 0


def _cmd_flow(args, params):
    cv = _need_curve(args)
    snap = args.out + ".steps" if args.out is not None else None
    with _writing(args.out):
        state = run_flow(
            cv,
            params,
            steps=60,
            K=8,
            trace_path=args.out,
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
            "trace": args.out,
        },
        None,
    )
    return 0


def _suite_fd(args, params):
    cv = (
        load_curve(args.curve, M=args.M)
        if args.curve is not None
        else random_curve(args.seed, M=args.M or 192, n=3)
    )
    phi = _load_field(cv, args.phi, args.seed)
    psi = _load_field(cv, args.psi, args.seed + 1)
    fv = first_variation(cv, phi, params, band=args.band)
    _, rich = fd_energy_gradient(cv, phi, params)
    gap_g = abs(fv - rich) / max(abs(rich), 1.0e-300)
    sv = second_variation(cv, phi, psi, params, band=args.band)
    fh = fd_energy_hessian(cv, phi, psi, params)
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


#: ``ellipse(2, 1, M)`` fails the unit-speed check at every M <= 80 and at
#: M = 84 (deviation 2.8e-5 at M = 64), so the limits suite builds it on at
#: least this many samples
_ELLIPSE_MIN_M = 96


def _suite_limits(args, params):
    worst = 0.0
    rows = []
    M = args.M or 256
    for cv in (circle(M), ellipse(2.0, 1.0, max(M, _ELLIPSE_MIN_M))):
        phi = random_field(cv, seed=args.seed)
        psi = random_field(cv, seed=args.seed + 1)
        for which in ("m_alpha", "r1", "r2", "s1", "s2", "s3", "s4", "s5"):
            rep = diagonal_limit(cv, phi, psi, params, cv.s[cv.M // 8], which)
            gap = rep.gap_rel if rep.gap_rel is not None else rep.gap_abs
            worst = max(worst, gap)
            rows.append(rep.as_dict())
    return {"max_rel_gap": worst, "reports": rows}, worst / 1.0e-4


def _suite_circle(args, params):
    M = args.M or 256
    cv = circle(M)
    e, est = energy(cv, params, band=args.band, with_estimate=True)
    hs = [cv.L / 16.0 / 2.0**k for k in range(6)]
    tab = circle_reference(params.alpha, params.p, hs)
    direct = neville_h2(hs, [r["weighted"] for r in tab["rows"]])
    rep = diagonal_limit(cv, None, None, params, 0.0, "density")
    gap = abs(direct - rep.extrapolated) / max(abs(direct), 1.0e-300)
    return {
        "E": e,
        "estimate": est,
        "weighted_limit_direct": direct,
        "weighted_limit_path": rep.extrapolated,
        "weighted_limit_reference": tab["limit"],
        "two_route_rel_gap": gap,
    }, gap / 1.0e-6


def _suite_norms(args, params):
    cv = circle(args.M or 256)
    phi = random_field(cv, seed=args.seed)
    chk = product_seminorm_check(cv, phi)
    margin = chk["margin"]
    return {"product_check": chk}, (1.0 if margin < -1.0e-10 else 0.0)


#: verify suite -> function returning ``(report, badness)``; ``all`` runs each
_SUITES = {
    "fd": _suite_fd,
    "limits": _suite_limits,
    "circle": _suite_circle,
    "norms": _suite_norms,
}


def _cmd_verify(args, params):
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    doc = {}
    failed = False
    for name in names:
        body, badness = _SUITES[name](args, params)
        body["pass"] = bool(badness <= 1.0)
        failed = failed or not body["pass"]
        doc[name] = body
    _emit(doc, args.out)
    if failed:
        raise NumericalError("verify suite failed: %s" % ", ".join(
            n for n in names if not doc[n]["pass"]
        ))
    return 0


#: subcommand -> (function, help text), in the order ``--help`` lists them
_COMMANDS = {
    "energy": (_cmd_energy, "energy value with error estimate"),
    "gradient": (_cmd_gradient, "first variation along a field"),
    "hessian-form": (_cmd_hessian, "second variation along two fields"),
    "density": (_cmd_density, "pair-grid export of density/G/H"),
    "limits": (_cmd_limits, "diagonal-limit reports"),
    "norms": (_cmd_norms, "seminorm reports"),
    "flow": (_cmd_flow, "projected gradient descent"),
    "verify": (_cmd_verify, "oracle suites"),
}


def main(argv=None):
    """Entry point; returns the process exit code."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        params = EnergyParams(args.alpha, args.p, beta=args.beta)
        if args.seed < 0:
            raise ValidationError("seed must be >= 0")
        command, _ = _COMMANDS[args.command]
        return command(args, params)
    except ValidationError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    except NumericalError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
