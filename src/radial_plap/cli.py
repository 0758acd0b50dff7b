"""Command-line entry point: check-conditions, solve, asymptotics, degiorgi,
example.

Scalar results and verdicts go to JSON, mesh functions to CSV; result files
carry no timestamps so reruns with an identical problem and version are
byte-identical (the run manifest, which lists outputs and records the times,
is the only stamped file).  Exit codes: 0 pass, 1 verdict-fail, 2 usage or
malformed-spec error.
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


def _problem_hash(ps: ProblemSpec) -> str:
    blob = json.dumps(problem_to_dict(ps), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _write_manifest(out_dir: Path, command, ps, outputs):
    manifest = {
        "command": command,
        "problem_hash": _problem_hash(ps) if ps is not None else None,
        "tool_version": __version__,
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
        "outputs": sorted(str(p.name) for p in outputs),
    }
    _write_json(out_dir / "manifest.json", manifest)


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


def cmd_check_conditions(args) -> int:
    ps = _load_spec(args)
    reports = conditions.check_all(ps, xi=args.xi, eps=args.eps, tol=args.tol)
    payload = [r.to_dict() for r in reports]
    out = _out_dir(args)
    files = [_write_json(out / "conditions.json", payload)]
    _write_manifest(out, "check-conditions", ps, files)
    if args.json:
        print(json.dumps(_sanitize(payload), indent=2, sort_keys=True))
    else:
        for r in reports:
            print(f"{r.condition_id:8s} {r.verdict:12s} {r.notes}")
    return EXIT_OK


def _solve(ps, args):
    # --tol governs witness integrals; the eigenvalue root keeps the solver
    # default unless the user asks for something tighter
    kwargs = dict(tol=min(args.tol, 1e-10), check=not args.no_check)
    if math.isfinite(ps.R2):
        return solver.find_lambda1(ps, **kwargs)
    if args.ladder is not None:
        ladder = [ps.R1 * 2.0**k for k in range(2, args.ladder + 2)]
        return solver.find_lambda1(ps, ladder=ladder, bc=args.bc, **kwargs)
    return solver.find_lambda1(ps, r_max=args.rmax, bc=args.bc, **kwargs)


def cmd_solve(args) -> int:
    ps = _load_spec(args)
    out = _out_dir(args)
    files = []
    results = {}
    try:
        if args.method in ("shoot", "both"):
            eig = _solve(ps, args)
            results["lambda1"] = eig.lam
            results["zero_count"] = eig.zero_count
            results["diagnostics"] = eig.diagnostics
            files.append(
                _write_csv(out / "eigenfunction.csv", ["r", "u", "flux"],
                           [eig.mesh.nodes, eig.u, eig.flux])
            )
        if args.method in ("rayleigh", "both"):
            psm = ps if math.isfinite(ps.R2) else ps.truncated(
                args.rmax if args.rmax else ps.R1 * 2.0**5
            )
            mesh = solver.make_mesh(psm, n_core=args.nodes)
            eigm = solver.rayleigh_minimize(psm, mesh)
            results["lambda1_rayleigh"] = eigm.lam
            results["rayleigh_diagnostics"] = eigm.diagnostics
            files.append(
                _write_csv(out / "eigenfunction_rayleigh.csv", ["r", "u", "flux"],
                           [eigm.mesh.nodes, eigm.u, eigm.flux])
            )
    except solver.SolverError as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        return EXIT_VERDICT
    files.insert(0, _write_json(out / "solve.json", results))
    _write_manifest(out, "solve", ps, files)
    if args.json:
        print(json.dumps(_sanitize(results), indent=2, sort_keys=True))
    else:
        for key in ("lambda1", "lambda1_rayleigh"):
            if key in results:
                print(f"{key} = {results[key]:.12g}")
    return EXIT_OK


def _read_eigen_csv(path, ps, r_end):
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    mesh = solver.Mesh(rows[:, 0], ps.R1, r_end,
                       rows[0, 0] - ps.R1, max(r_end - rows[-1, 0], 0.0))
    lam = float("nan")
    return solver.Eigenpair(lam, mesh, rows[:, 1], rows[:, 2], 0, {})


def cmd_asymptotics(args) -> int:
    ps = _load_spec(args)
    out = _out_dir(args)
    if args.eig:
        if math.isfinite(ps.R2):
            r_end = ps.R2
        elif args.rmax:
            r_end = args.rmax
        else:
            print("--rmax required with --eig on exterior domains", file=sys.stderr)
            return EXIT_USAGE
        eig = _read_eigen_csv(args.eig, ps, r_end)
        ps_solve = ps if math.isfinite(ps.R2) else ps.truncated(r_end)
    else:
        if math.isfinite(ps.R2):
            ps_solve = ps
            eig = solver.find_lambda1(ps, tol=args.tol, check=not args.no_check,
                                      per_decade=16)
        else:
            r_end = args.rmax if args.rmax else _auto_rmax(ps)
            ps_solve = ps.truncated(r_end)
            eig = solver.find_lambda1(ps_solve, tol=args.tol,
                                      check=not args.no_check, per_decade=16,
                                      n_core=3000)
    boundaries = ["left", "right"] if args.boundary == "both" else [args.boundary]
    verdicts = []
    skipped = []
    files = []
    all_pass = True
    for b in boundaries:
        # left windows read the truncated envelope; right-at-infinity windows
        # must use the exterior envelope
        ps_env = ps_solve if (b == "left" or math.isfinite(ps.R2)) else ps
        try:
            v = asymptotics.sandwich_check(eig, ps_env, b)
        except asymptotics.WindowError as exc:
            # the window is unattainable at this truncation, not a verdict
            print(f"{b}: skipped ({exc})", file=sys.stderr)
            skipped.append({"boundary": b, "skipped": str(exc)})
            continue
        except ValueError as exc:
            print(f"{b}: {exc}", file=sys.stderr)
            all_pass = False
            continue
        verdicts.append(v)
        all_pass &= v.passed
        mask = (eig.mesh.nodes >= v.window[0]) & (eig.mesh.nodes <= v.window[1])
        rs = eig.mesh.nodes[mask]
        env = (asymptotics.envelope_left(ps_env, rs) if b == "left"
               else asymptotics.envelope_right(ps_env, rs))
        files.append(
            _write_csv(out / f"asymptotics_{b}.csv",
                       ["r", "u", "envelope", "ratio"],
                       [rs, eig.u[mask], env, eig.u[mask] / env])
        )
    payload = [v.to_dict() for v in verdicts] + skipped
    files.insert(0, _write_json(out / "asymptotics.json", payload))
    _write_manifest(out, "asymptotics", ps, files)
    if args.json:
        print(json.dumps(_sanitize(payload), indent=2, sort_keys=True))
    else:
        for v in verdicts:
            print(f"{v.boundary:5s} fitted={v.fitted_exponent:+.4f} "
                  f"theory={v.theoretical_exponent} "
                  f"ratio_spread={v.ratio_max / v.ratio_min:.3f} "
                  f"pass={v.passed}")
    return EXIT_OK if all_pass else EXIT_VERDICT


def _auto_rmax(ps):
    """Truncation radius large enough for the default right window: 6.5x the
    radius where the right envelope has dropped to 1e-3."""
    try:
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
    except Exception:
        return ps.R1 * 2.0**7


def cmd_degiorgi(args) -> int:
    out = _out_dir(args)
    files = []
    if args.sweep:
        results = {}
        for alt in ("a", "b"):
            results[alt] = degiorgi.sweep(args.sweep, seed=args.seed,
                                          alternative=alt,
                                          workers=thread_cap())
        payload = results
        bad = sum(r["counterexamples"] for r in results.values())
    else:
        for name in ("K", "eta", "d1", "d2", "J0"):
            if getattr(args, name) is None:
                print(f"--{name} required without --sweep", file=sys.stderr)
                return EXIT_USAGE
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
    files.append(_write_json(out / "degiorgi.json", payload))
    _write_manifest(out, "degiorgi", None, files)
    if args.json:
        print(json.dumps(_sanitize(payload), indent=2, sort_keys=True))
    else:
        print(json.dumps(_sanitize(payload), sort_keys=True))
    return EXIT_OK if bad == 0 else EXIT_VERDICT


def cmd_example(args) -> int:
    try:
        preset = presets.get_preset(args.name)
    except KeyError:
        print(f"unknown preset {args.name!r}; choose from "
              f"{', '.join(presets.PRESET_NAMES)}", file=sys.stderr)
        return EXIT_USAGE
    ps = preset.problem
    out = _out_dir(args)
    files = [Path(out / "problem.json")]
    from .weights import dump_problem

    dump_problem(ps, files[0])
    reports = conditions.check_all(ps, tol=args.tol)
    files.append(_write_json(out / "conditions.json",
                             [r.to_dict() for r in reports]))
    summary = {
        "preset": preset.name,
        "description": preset.description,
        "expected": preset.expected,
        "conditions": {r.condition_id: r.verdict for r in reports},
    }
    failed = False
    solvable = all(
        r.verdict != conditions.FAILS for r in reports if r.condition_id == "A"
    )
    if solvable:
        if math.isfinite(ps.R2):
            eig = solver.find_lambda1(ps, check=False, per_decade=16)
        else:
            r_end = _auto_rmax(ps)
            eig = solver.find_lambda1(ps.truncated(r_end), check=False,
                                      per_decade=16, n_core=3000)
        summary["lambda1"] = eig.lam
        summary["solver_diagnostics"] = eig.diagnostics
        files.append(_write_csv(out / "eigenfunction.csv", ["r", "u", "flux"],
                                [eig.mesh.nodes, eig.u, eig.flux]))
        rows = []
        ps_solve = ps if math.isfinite(ps.R2) else ps.truncated(eig.mesh.r_end)
        for b in ("left", "right"):
            ps_env = ps_solve if (b == "left" or math.isfinite(ps.R2)) else ps
            try:
                v = asymptotics.sandwich_check(eig, ps_env, b)
            except asymptotics.WindowError as exc:
                rows.append({"boundary": b, "skipped": str(exc)})
                continue
            except ValueError as exc:
                rows.append({"boundary": b, "error": str(exc)})
                failed = True
                continue
            rows.append(v.to_dict())
            failed |= not v.passed
        summary["asymptotics"] = rows
    files.insert(0, _write_json(out / "summary.json", summary))
    _write_manifest(out, "example", ps, files)
    print(f"preset {preset.name}: {preset.description}")
    for r in reports:
        print(f"  {r.condition_id:8s} {r.verdict}")
    if "lambda1" in summary:
        print(f"  lambda1 = {summary['lambda1']:.8g}")
        for row in summary.get("asymptotics", []):
            if "fitted_exponent" in row:
                print(f"  {row['boundary']:5s} exponent fitted "
                      f"{row['fitted_exponent']:+.4f} vs theory "
                      f"{row['theoretical_exponent']} pass={row['pass']}")
    return EXIT_VERDICT if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="radial-plap",
        description="Principal eigenpair, weight-condition checks, and "
        "boundary asymptotics for the radial weighted p-Laplacian.",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, with_problem=True):
        p.add_argument("--tol", type=float, default=1e-8,
                       help="tolerance for condition integrals / lambda")
        p.add_argument("--out-dir", default="runs", help="output directory")
        p.add_argument("--json", action="store_true",
                       help="print the JSON payload to stdout")
        p.add_argument("--seed", type=int, default=0, help="sweep RNG seed")
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
    common(p, with_problem=False)
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
    p.set_defaults(func=cmd_example)
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


if __name__ == "__main__":
    sys.exit(main())
