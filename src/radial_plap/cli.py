"""Command-line entry point: check-conditions, solve, asymptotics, degiorgi,
example.

``example``, ``asymptotics`` and ``solve`` share one pipeline: a gate on
condition (A) of the untruncated problem, one solve, and (not for ``solve``)
one sandwich check per boundary.

Scalar results and verdicts go to JSON, mesh functions to CSV; result files
carry no timestamps so reruns with an identical problem and version are
byte-identical (the run manifest, which lists outputs and records the times,
is the only stamped file).  Exit codes: 0 pass, 1 verdict-fail or solver
failure (a failed condition-(A) gate included), 2 usage or malformed-spec
error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, asymptotics, conditions, degiorgi, presets, solver
from .weights import ProblemSpec, SpecError, load_problem, problem_to_dict

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_USAGE = 2


class UsageError(Exception):
    """An option combination the command cannot run (exit code 2)."""


def thread_cap() -> int:
    """Parallelism cap from RADIAL_PLAP_THREADS (>= 1; default 1)."""
    try:
        return max(1, int(os.environ.get("RADIAL_PLAP_THREADS", "1")))
    except ValueError:
        return 1


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
    return obj


def _write_json(path: Path, payload) -> Path:
    path.write_text(json.dumps(_sanitize(payload), indent=2, sort_keys=True) + "\n")
    return path


def _write_csv(path: Path, header, columns) -> Path:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([repr(float(x)) for x in row])
    return path


def _write_results(args, out: Path, command, ps, name, payload, files) -> bool:
    """Write the command's JSON result ``name`` and the manifest listing it
    with ``files``; under --json also print the payload.  Returns whether it
    was printed."""
    files = [_write_json(out / name, payload)] + files
    problem_hash = None
    if ps is not None:
        blob = json.dumps(problem_to_dict(ps), sort_keys=True).encode()
        problem_hash = hashlib.sha256(blob).hexdigest()
    _write_json(out / "manifest.json", {
        "command": command,
        "problem_hash": problem_hash,
        "tool_version": __version__,
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
        "outputs": sorted(str(p.name) for p in files),
    })
    if args.json:
        print(json.dumps(_sanitize(payload), indent=2, sort_keys=True))
    return args.json


def _load_spec(args) -> ProblemSpec:
    if getattr(args, "preset", None):
        return presets.get_preset(args.preset).problem
    if not getattr(args, "problem", None):
        raise SpecError("one of --problem or --preset is required")
    return load_problem(args.problem)


def _out_dir(args) -> Path:
    d = Path(args.out_dir)
    d.mkdir(parents=True, exist_ok=True)
    return d


# ---------------------------------------------------------------------------
# the pipeline: gate -> solve -> verify
# ---------------------------------------------------------------------------


def _gate(reports):
    """Refuse to solve when condition (A), the existence hypothesis, fails on
    the untruncated problem (a truncated annulus always satisfies it)."""
    for r in reports:
        if r.condition_id == "A" and r.verdict == conditions.FAILS:
            raise solver.SolverError(f"condition (A) fails ({r.notes})")


def _solve(ps, args, ladder=False):
    """(eigenpair, problem it solves).  Exterior domains are truncated at
    --rmax (default :func:`_auto_rmax`); with ``ladder`` they go through the
    solver's truncation ladder instead (--ladder rungs, or rungs up to
    --rmax), whose eigenvalue is the extrapolated exterior one."""
    # --tol governs witness integrals; the eigenvalue root keeps the solver
    # default unless the user asks for something tighter
    kwargs = dict(tol=min(args.tol, 1e-10), check=False, per_decade=16)
    if math.isfinite(ps.R2):
        return solver.find_lambda1(ps, **kwargs), ps
    if ladder:
        rungs = (None if args.ladder is None
                 else [ps.R1 * 2.0**k for k in range(2, args.ladder + 2)])
        return solver.find_lambda1(ps, r_max=args.rmax, ladder=rungs,
                                   bc=args.bc, **kwargs), ps
    ps_solve = ps.truncated(args.rmax or _auto_rmax(ps))
    return solver.find_lambda1(ps_solve, n_core=3000, **kwargs), ps_solve


def _verify(eig, ps, ps_solve, boundaries, csv_dir=None):
    """One sandwich row per boundary: the verdict, a ``skipped`` row when the
    window is unattainable at this truncation, or an ``error`` row.  With
    ``csv_dir``, each verdict's window is written to asymptotics_<b>.csv.
    Returns the rows and the CSV paths."""
    rows, files = [], []
    for b in boundaries:
        # left windows read the truncated envelope; right-at-infinity windows
        # must use the exterior envelope
        ps_env = ps_solve if b == "left" else ps
        try:
            v = asymptotics.sandwich_check(eig, ps_env, b)
        except asymptotics.WindowError as exc:
            rows.append({"boundary": b, "skipped": str(exc)})
            continue
        except ValueError as exc:
            rows.append({"boundary": b, "error": str(exc)})
            continue
        rows.append(v.to_dict())
        if csv_dir is not None:
            mask = (eig.mesh.nodes >= v.window[0]) & (eig.mesh.nodes <= v.window[1])
            rs = eig.mesh.nodes[mask]
            env = (asymptotics.envelope_left(ps_env, rs) if b == "left"
                   else asymptotics.envelope_right(ps_env, rs))
            files.append(_write_csv(csv_dir / f"asymptotics_{b}.csv",
                                    ["r", "u", "envelope", "ratio"],
                                    [rs, eig.u[mask], env, eig.u[mask] / env]))
    return rows, files


def _rows_pass(rows) -> bool:
    """A skipped window is no verdict; an error row fails."""
    return all("skipped" in row or row.get("pass") for row in rows)


def _eigen_csv(out: Path, name, eig) -> Path:
    return _write_csv(out / name, ["r", "u", "flux"], [eig.mesh.nodes, eig.u, eig.flux])


def _auto_rmax(ps):
    """Truncation radius large enough for the default right window: 6.5x the
    radius where the right envelope has dropped to 1e-3."""
    psi = ps.psi_rho_conj
    lo = hi = max(2.0 * ps.R1, ps.R1 + 1.0)
    for _ in range(200):
        if psi(hi) < 1e-3:
            break
        lo = hi
        hi *= 2.0
    for _ in range(40):
        mid = math.sqrt(lo * hi)
        if psi(mid) < 1e-3:
            hi = mid
        else:
            lo = mid
    # slowly decaying envelopes would demand astronomical radii; beyond
    # the cap the right window is reported as unattainable instead
    return min(8.0 * hi, 4096.0 * max(ps.R1, 1.0))


def cmd_check_conditions(args) -> int:
    ps = _load_spec(args)
    reports = conditions.check_all(ps, xi=args.xi, eps=args.eps, tol=args.tol)
    if not _write_results(args, _out_dir(args), "check-conditions", ps,
                          "conditions.json", [r.to_dict() for r in reports], []):
        for r in reports:
            print(f"{r.condition_id:8s} {r.verdict:12s} {r.notes}")
    return EXIT_OK


def cmd_solve(args) -> int:
    ps = _load_spec(args)
    rayleigh = args.method in ("rayleigh", "both")
    if rayleigh and args.bc == "matched":
        raise UsageError("--bc matched needs --method shoot: the Rayleigh "
                         "minimizer solves the Dirichlet problem only")
    if args.ladder is not None and args.ladder < 1:
        raise UsageError("--ladder needs at least one rung")
    if args.ladder is not None and args.rmax is not None:
        raise UsageError("--ladder and --rmax both set the truncation; pass one")
    if math.isfinite(ps.R2) and (args.ladder is not None or args.rmax is not None
                                 or args.bc == "matched"):
        raise UsageError("--ladder, --rmax and --bc matched are for exterior "
                         f"domains; this one ends at R2 = {ps.R2}")
    if not args.no_check:
        _gate([conditions.check_A(ps, tol=args.tol)])
    out = _out_dir(args)
    files, results = [], {}
    # Rayleigh alone runs on the top rung that --ladder or --rmax asks for
    r_end = args.rmax or ps.R1 * 2.0**7
    if args.ladder is not None:
        r_end = ps.R1 * 2.0 ** (args.ladder + 1)
    if args.method in ("shoot", "both"):
        eig, _ = _solve(ps, args, ladder=True)
        results["lambda1"] = eig.lam
        results["zero_count"] = eig.zero_count
        results["diagnostics"] = eig.diagnostics
        files.append(_eigen_csv(out, "eigenfunction.csv", eig))
        r_end = eig.diagnostics["truncation_radius"]
    if rayleigh:
        psm = ps if math.isfinite(ps.R2) else ps.truncated(r_end)
        eigm = solver.rayleigh_minimize(psm, solver.make_mesh(psm, n_core=args.nodes))
        eigm.diagnostics["truncation_radius"] = psm.R2
        results["lambda1_rayleigh"] = eigm.lam
        results["rayleigh_diagnostics"] = eigm.diagnostics
        files.append(_eigen_csv(out, "eigenfunction_rayleigh.csv", eigm))
    if not _write_results(args, out, "solve", ps, "solve.json", results, files):
        for key in ("lambda1", "lambda1_rayleigh"):
            if key in results:
                print(f"{key} = {results[key]:.12g}")
    return EXIT_OK


def _read_eigen_csv(path, ps, r_end):
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    mesh = solver.Mesh(rows[:, 0], ps.R1, r_end,
                       rows[0, 0] - ps.R1, max(r_end - rows[-1, 0], 0.0))
    return solver.Eigenpair(math.nan, mesh, rows[:, 1], rows[:, 2], 0, {})


def cmd_asymptotics(args) -> int:
    ps = _load_spec(args)
    r_end = ps.R2 if math.isfinite(ps.R2) else args.rmax
    if args.eig and r_end is None:
        raise UsageError("--rmax required with --eig on exterior domains")
    if not args.no_check:
        _gate([conditions.check_A(ps, tol=args.tol)])
    out = _out_dir(args)
    if args.eig:
        eig = _read_eigen_csv(args.eig, ps, r_end)
        ps_solve = ps if math.isfinite(ps.R2) else ps.truncated(r_end)
    else:
        eig, ps_solve = _solve(ps, args)
    boundaries = ["left", "right"] if args.boundary == "both" else [args.boundary]
    rows, files = _verify(eig, ps, ps_solve, boundaries, csv_dir=out)
    printed = _write_results(args, out, "asymptotics", ps, "asymptotics.json",
                             rows, files)
    for row in rows:
        b = row["boundary"]
        if "skipped" in row:
            print(f"{b}: skipped ({row['skipped']})", file=sys.stderr)
        elif "error" in row:
            print(f"{b}: {row['error']}", file=sys.stderr)
        elif not printed:
            print(f"{b:5s} fitted={row['fitted_exponent']:+.4f} "
                  f"theory={row['theoretical_exponent']} "
                  f"ratio_spread={row['ratio_max'] / row['ratio_min']:.3f} "
                  f"pass={row['pass']}")
    return EXIT_OK if _rows_pass(rows) else EXIT_VERDICT


def cmd_degiorgi(args) -> int:
    if args.sweep:
        payload = {alt: degiorgi.sweep(args.sweep, seed=args.seed, alternative=alt,
                                       workers=thread_cap())
                   for alt in ("a", "b")}
        bad = sum(r["counterexamples"] for r in payload.values())
    else:
        for name in ("K", "eta", "d1", "d2", "J0"):
            if getattr(args, name) is None:
                raise UsageError(f"--{name} required without --sweep")
        params = degiorgi.RecursionParams(
            K=args.K, eta=args.eta, delta1=args.d1, delta2=args.d2, J0=args.J0
        )
        thr_a, thr_b = degiorgi.threshold(params)
        trace = degiorgi.simulate(params)
        payload = {
            "threshold_a": thr_a,
            "threshold_b": thr_b,
            "n0": trace.n0,
            "overflowed": trace.overflowed,
            "J_head": [float(j) for j in trace.J[:20]],
        }
        bad = 0
        try:
            ok, first_bad, _ = degiorgi.verify_bound(params)
            payload["bound_verified"] = ok
            payload["first_violation"] = first_bad
            bad = 0 if ok else 1
        except ValueError as exc:
            payload["bound_verified"] = None
            payload["note"] = str(exc)
    if not _write_results(args, _out_dir(args), "degiorgi", None, "degiorgi.json",
                          payload, []):
        print(json.dumps(_sanitize(payload), sort_keys=True))
    return EXIT_OK if bad == 0 else EXIT_VERDICT


def cmd_example(args) -> int:
    preset = presets.get_preset(args.name)
    ps = preset.problem
    out = _out_dir(args)
    reports = conditions.check_all(ps, tol=args.tol)
    files = [_write_json(out / "problem.json", problem_to_dict(ps)),
             _write_json(out / "conditions.json", [r.to_dict() for r in reports])]
    _gate(reports)
    eig, ps_solve = _solve(ps, args)
    files.append(_eigen_csv(out, "eigenfunction.csv", eig))
    rows, _ = _verify(eig, ps, ps_solve, ("left", "right"))
    summary = {
        "preset": preset.name,
        "description": preset.description,
        "expected": preset.expected,
        "conditions": {r.condition_id: r.verdict for r in reports},
        "lambda1": eig.lam,
        "solver_diagnostics": eig.diagnostics,
        "asymptotics": rows,
    }
    if not _write_results(args, out, "example", ps, "summary.json", summary, files):
        print(f"preset {preset.name}: {preset.description}")
        for r in reports:
            print(f"  {r.condition_id:8s} {r.verdict}")
        print(f"  lambda1 = {eig.lam:.8g}")
        for row in rows:
            if "fitted_exponent" in row:
                print(f"  {row['boundary']:5s} exponent fitted "
                      f"{row['fitted_exponent']:+.4f} vs theory "
                      f"{row['theoretical_exponent']} pass={row['pass']}")
    return EXIT_OK if _rows_pass(rows) else EXIT_VERDICT


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="radial-plap",
        description="Principal eigenpair, weight-condition checks, and "
        "boundary asymptotics for the radial weighted p-Laplacian.",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, with_problem=True, with_tol=True):
        if with_tol:
            p.add_argument("--tol", type=float, default=1e-8,
                           help="tolerance for condition integrals / lambda")
        p.add_argument("--out-dir", default="runs", help="output directory")
        p.add_argument("--json", action="store_true",
                       help="print the JSON payload to stdout")
        if with_problem:
            p.add_argument("--problem", help="problem spec JSON path")
            p.add_argument("--preset", choices=presets.PRESET_NAMES,
                           help="named preset instead of --problem")

    p = sub.add_parser("check-conditions", help="run every weight hypothesis")
    common(p)
    p.add_argument("--xi", type=float, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.set_defaults(func=cmd_check_conditions)

    p = sub.add_parser("solve", help="principal eigenpair")
    common(p)
    p.add_argument("--rmax", type=float, default=None,
                   help="truncation radius for exterior domains")
    p.add_argument("--ladder", type=int, default=None,
                   help="number of R1*2^k truncation rungs (k = 2..)")
    p.add_argument("--method", choices=["shoot", "rayleigh", "both"],
                   default="shoot")
    p.add_argument("--bc", choices=["dirichlet", "matched"],
                   default="dirichlet", help="truncation boundary condition")
    p.add_argument("--nodes", type=int, default=2000,
                   help="core mesh nodes for the Rayleigh minimizer")
    p.add_argument("--no-check", action="store_true",
                   help="skip the condition-(A) gate")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("asymptotics", help="boundary sandwich verification")
    common(p)
    p.add_argument("--eig", help="eigenfunction CSV (r, u, flux)")
    p.add_argument("--rmax", type=float, default=None)
    p.add_argument("--boundary", choices=["left", "right", "both"],
                   default="both")
    p.add_argument("--no-check", action="store_true")
    p.set_defaults(func=cmd_asymptotics)

    p = sub.add_parser("degiorgi", help="recursion decay lemma")
    common(p, with_problem=False, with_tol=False)
    p.add_argument("--seed", type=int, default=0, help="sweep RNG seed")
    p.add_argument("--K", type=float, default=None)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--d1", type=float, default=None)
    p.add_argument("--d2", type=float, default=None)
    p.add_argument("--J0", type=float, default=None)
    p.add_argument("--sweep", type=int, default=None,
                   help="run a randomized verification sweep of this size")
    p.set_defaults(func=cmd_degiorgi)

    p = sub.add_parser("example", help="full pipeline on a named preset")
    common(p, with_problem=False)
    p.add_argument("name", choices=presets.PRESET_NAMES)
    # example always truncates exterior presets at _auto_rmax
    p.set_defaults(func=cmd_example, rmax=None)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except SpecError as exc:
        print(f"invalid problem spec: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"file not found: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except solver.SolverError as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        return EXIT_VERDICT


if __name__ == "__main__":
    sys.exit(main())
