"""Command-line interface.

Subcommands: ``check`` (hypothesis verdicts as JSON lines), ``diag``
(kernel-norm diagnostics to CSV), ``relax`` (stochastic relaxation run),
``fit`` (parameter fits from a data manifest), and ``table1`` (reference
gas table from the bundled synthetic datasets).

Exit codes: 0 success, 2 argument or schema error, 3 I/O error,
4 numerical abort.  Output files are written atomically (temp file plus
rename), and ``relax``, the one command with random state, echoes its seed
as a `# seed=` header line.

Only what ``relax`` needs is imported at module level: ``hypotheses``,
``fitlab`` and ``operator`` are imported by the subcommands that use them,
so a one-shot ``polykin relax`` does not pay for loading them.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys
import tempfile
from contextlib import contextmanager
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np

from . import relax
from .collide import sq_norm
from .equilib import EquilibriumParams, Maxwellian
from .model import ContinuousEnergy, PowerLawE, single_species, spec_from_json

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

# argparse reads a separate -1e3 or -inf as an option (only -1 and -1.5
# pass its number test), so main joins it to the flag before it as
# --zeta=-1e3; the words are the ones float accepts, in any letter case
_EXPONENT_NUMBER = re.compile(r"-((\d+\.?\d*|\.\d+)e[-+]?\d+|inf|infinity|nan)",
                              re.IGNORECASE)

# library errors open with the parameter they concern; by command, each
# opening and the prefix that names the parameter as the user wrote it
_NAMED_ERRORS = {
    "check": {"delta ": "--", "zeta ": "--"},
    "diag": {"delta ": "--", "zeta ": "--"},
    "relax": {"b_maj:": "relax.", "n_particles:": "relax.",
              "t_end / dt": "relax.t_end, relax.dt: "},
}


def _load_schema(name: str) -> dict:
    text = resources.files("polykin.schemas").joinpath(name).read_text(encoding="utf-8")
    return json.loads(text)


def _validate(doc, name: str) -> None:
    """Raise the best-matching ValidationError of ``doc`` against the shipped
    schema ``name``, as ``jsonschema.validate`` does.  The shipped schemas
    are checked against their metaschema by the test suite rather than on
    every run."""
    schema = _load_schema(name)
    validator = jsonschema.validators.validator_for(schema)(schema)
    error = jsonschema.exceptions.best_match(validator.iter_errors(doc))
    if error is not None:
        raise error


@contextmanager
def _atomic_write(path):
    """Yield a temp file path beside ``path`` for the block to write, then
    rename the file over ``path``; the temp file is removed if the block
    raises."""
    path = Path(path)
    parent = path.parent if str(path.parent) else Path(".")
    fd, tmp = tempfile.mkstemp(dir=str(parent), prefix=path.name + ".", suffix=".tmp")
    os.close(fd)
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _json_path(keys) -> str:
    """A JSON document path in ``species[0].mass`` form."""
    path = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)
    return path.removeprefix(".")


def _non_finite(doc, keys=()):
    """Path of the first NaN or infinite number in a parsed JSON document or
    in ``vars`` of the parsed flags (``json`` and ``float`` accept them), or
    None."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return _json_path(keys) if isinstance(doc, float) and not math.isfinite(doc) else None
    return next(filter(None, (_non_finite(v, (*keys, k)) for k, v in items)), None)


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _emit(out, write, summary) -> int:
    """Write a command's table to ``out`` atomically through ``write(tmp)``,
    then print its summary as one JSON line, an overflowed number as null."""
    with _atomic_write(out) as tmp:
        write(tmp)
    print(json.dumps({k: _json_safe(v) for k, v in summary.items()}))
    return EXIT_OK


def _cmd_check(args) -> int:
    from .hypotheses import HypothesisId, check

    tokens = [tok.strip() for tok in args.hyp.split(",") if tok.strip()]
    if not tokens:
        raise ValueError("--hyp needs at least one hypothesis id")
    ids = [HypothesisId.parse(tok) for tok in tokens]
    # every verdict is formed before any is printed, so a missing or bad flag
    # leaves stdout empty
    verdicts = [check(hid, delta=args.delta, zeta=args.zeta, zeta1=args.zeta1,
                      zeta2=args.zeta2, extended=args.extended) for hid in ids]
    for verdict in verdicts:
        if isinstance(verdict, dict):
            # scalar inputs collapse the mixture check to its only pair
            verdict = verdict[(0, 0)]
        print(verdict.to_json())
    return EXIT_OK


def _cmd_diag(args) -> int:
    from .operator import GridSpec, assemble_k1, k2_integrability_diagnostic

    if args.delta <= 0:
        raise ValueError("--delta must be positive")
    out = args.out or f"diag_{args.kind}.csv"
    summary = {"kind": args.kind, "delta": args.delta, "zeta": args.zeta, "out": str(out)}
    if args.kind == "k2":
        diag = k2_integrability_diagnostic(args.delta, args.zeta)
        lines = ["epsilon,partial_integral"]
        lines += [f"{eps:.17g},{val:.17g}" for eps, val in diag.rows()]
        summary.update(verdict=diag.verdict, final_partial=diag.partials[-1],
                       cauchy_change=diag.cauchy_change, inconsistent=diag.inconsistent)
    else:
        try:
            grid = GridSpec() if args.grid is None else GridSpec(
                n_velocity=args.grid, n_internal=args.grid)
        except ValueError as exc:
            raise ValueError(f"--grid: {exc}") from None
        spec = single_species(ContinuousEnergy(delta=args.delta),
                              PowerLawE(C=1.0, zeta=args.zeta))
        M = Maxwellian(spec, EquilibriumParams(
            n=(1.0,), u=np.zeros(3), T_kin=1.0, T_int=1.0))
        k1 = assemble_k1(grid, M)
        speeds = np.sqrt(sq_norm(k1.nodes_v))
        norms = k1.row_norms()
        lines = ["node_index,v,I,k1_row_norm"]
        lines += [
            f"{idx},{speeds[idx]:.17g},{k1.nodes_i[idx]:.17g},{norms[idx]:.17g}"
            for idx in range(k1.n_nodes)
        ]
        summary.update(hs_norm=k1.hs_norm(), symmetry_defect=k1.symmetry_defect(),
                       n_nodes=k1.n_nodes)
    text = "\n".join(lines) + "\n"
    return _emit(out, lambda tmp: Path(tmp).write_text(text, encoding="utf-8"), summary)


def _cmd_relax(args) -> int:
    doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
    bad = _non_finite(doc)
    if bad:
        raise ValueError(f"{bad}: must be a finite number")
    _validate(doc, "relax_config.schema.json")
    spec = spec_from_json(json.dumps(doc))
    rc = doc["relax"]
    relax.step_count(rc["t_end"], rc["dt"])
    fields = {f.name: f.type for f in dataclasses.fields(relax.RelaxConfig)}
    # the schema's integers may arrive as integral floats such as 2e3
    config = relax.RelaxConfig(**{k: int(v) if fields[k] == "int" else v
                                  for k, v in rc.items() if k in fields})
    series = relax.run(spec, config, rc["T_kin0"], rc["T_int0"], rc["t_end"],
                       u0=rc.get("u0"))
    out = args.out or "relax_series.csv"
    return _emit(out, series.to_csv, {**relax.relax_summary(series), "out": str(out)})


def _cmd_fit(args) -> int:
    """``fit`` fits the datasets of a manifest, ``table1`` the bundled ones."""
    from . import fitlab

    datasets = None
    if args.command == "fit":
        _validate(json.loads(Path(args.manifest).read_text(encoding="utf-8")),
                  "fit_manifest.schema.json")
        datasets = fitlab.load_manifest(args.manifest)
    rows = fitlab.reproduce_table1(datasets)
    out = args.out or f"{args.command}_report.csv"
    return _emit(out, lambda tmp: fitlab.report_to_csv(rows, tmp), {
        "rows": len(rows),
        "out": str(out),
        "max_abs_delta_gap": max(abs(r.delta_gap) for r in rows),
        "max_abs_zeta_gap": max(abs(r.zeta_gap) for r in rows),
    })


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polykin",
        description="Collision-kernel toolkit for polyatomic gas models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="evaluate hypothesis windows for (delta, zeta)")
    p.add_argument("--delta", type=float, help="internal-degree count")
    p.add_argument("--zeta", type=float, help="kernel growth exponent")
    p.add_argument("--zeta1", type=float, default=0.0,
                   help="first partial exponent (resonant window)")
    p.add_argument("--zeta2", type=float, default=0.0,
                   help="second partial exponent (resonant window)")
    p.add_argument("--extended", action="store_true",
                   help="use the widened upper zeta bound")
    p.add_argument("--hyp", required=True,
                   help="comma-separated hypothesis ids, e.g. H2,H3")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("diag", help="kernel-norm diagnostics to CSV")
    p.add_argument("--kind", required=True, choices=("k2", "k1norm"))
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--zeta", type=float, required=True)
    p.add_argument("--grid", type=int, help="nodes per axis for k1norm")
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(func=_cmd_diag)

    p = sub.add_parser("relax", help="run a stochastic relaxation simulation")
    p.add_argument("--config", required=True, help="JSON run configuration")
    p.add_argument("--out", help="time-series CSV path")
    p.set_defaults(func=_cmd_relax)

    p = sub.add_parser("fit", help="fit delta and zeta from a data manifest")
    p.add_argument("--manifest", required=True, help="JSON dataset manifest")
    p.add_argument("--out", help="report CSV path")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("table1", help="reproduce the reference gas table")
    p.add_argument("--out", help="report CSV path")
    p.set_defaults(func=_cmd_fit)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    for k in range(len(argv) - 1, 0, -1):
        flag = argv[k - 1]
        if flag[:2] == "--" and "=" not in flag and _EXPONENT_NUMBER.fullmatch(argv[k]):
            argv[k - 1:k + 1] = [f"{flag}={argv[k]}"]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        # flags in parser order, so check names --delta before --zeta
        bad = _non_finite(vars(args))
        if bad:
            raise ValueError(f"--{bad} must be finite")
        # extreme inputs overflow to inf or nan, which a summary prints as
        # null or an error line reports; silencing numpy's floating-point
        # warnings keeps stderr empty or to that one line.  It changes no
        # value, and it holds on this thread, where every command runs.
        with np.errstate(all="ignore"):
            return args.func(args)
    except relax.MajorantViolation as exc:
        print(json.dumps({"error": str(exc), **exc.diagnostics}),
              file=sys.stderr)
        return EXIT_NUMERIC
    except jsonschema.ValidationError as exc:
        where = _json_path(exc.absolute_path)
        print(f"error: {where + ': ' if where else ''}{exc.message}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, KeyError) as exc:
        message = str(exc)
        prefix = next((p for start, p in _NAMED_ERRORS.get(args.command, {}).items()
                       if message.startswith(start)), "")
        print(f"error: {prefix}{message}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
