"""Command-line front end: plan, search, augment, evaluate, reproduce.

Every file-writing command also writes a ``manifest.json`` recording the
command, full parameter set, seed, tool version, input/output digests, and
wall-clock time.  Seeds default to 0, never to entropy, so identical
invocations yield byte-identical design artifacts (the manifest's wall-clock
field is the one exception).

Exit codes: 0 success, 1 internal error, 2 infeasible parameters, an
out-of-range option, a validation/parse failure (design or plan file), or a
file the operating system would not read or write.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import re
import time
from pathlib import Path

import click

from . import __version__
from .augmentor import augment
from .designs import ContractionDesign, _count_violations
from .efficiency import e_aug_direct, e_aug_formula, full_report
from .errors import (
    ConfigError,
    DisconnectedDesignError,
    InfeasibleParametersError,
    InvalidDesignError,
    ParseError,
)
from .planner import plan as plan_dimensions
from .planner import plan_fixed_grid
from .reference import REFERENCE_ROWS
from .search import _OBJECTIVES, _STRATEGIES, SearchConfig, search_contraction
from .textio import _read_file, format_design, parse_design, read_design

_USER_ERRORS = (ConfigError, InfeasibleParametersError, InvalidDesignError, ParseError,
                DisconnectedDesignError)
#: The command-line flag of each ``SearchConfig`` field.
_FLAGS = {f.name: "--iters" if f.name == "max_iters" else "--" + f.name.replace("_", "-")
          for f in dataclasses.fields(SearchConfig)}
_FIELD_RE = re.compile(r"\b(" + "|".join(_FLAGS) + r")\b")
_DEFAULTS = SearchConfig()


def _user_errors_exit_2(fn):
    """Print a user error as one ``error:`` line and exit 2.

    A command on a design file names the file, unless the message already
    begins with it; a ``ConfigError`` names the command-line flags where the
    library names ``SearchConfig`` fields; an ``OSError`` names the path the OS refused.
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except _USER_ERRORS as exc:
            message = str(exc)
            if isinstance(exc, ConfigError):
                message = _FIELD_RE.sub(lambda m: _FLAGS[m[0]], message)
            path = str(kwargs.get("design_file", ""))
            if path and not message.startswith(path):
                message = f"{path}: {message}"
            click.echo(f"error: {message}", err=True)
            raise SystemExit(2) from exc
        except OSError as exc:
            if exc.filename is None:  # not about a file: an internal error
                raise
            click.echo(f"error: {exc.filename}: {exc.strerror}", err=True)
            raise SystemExit(2) from exc

    return wrapper


def _manifest_options(cfg: SearchConfig) -> dict:
    # Each search field but the seed, keyed by its flag in camelCase (--time-budget: timeBudget).
    return {re.sub(r"-(\w)", lambda m: m[1].upper(), _FLAGS[f.name][2:]): getattr(cfg, f.name)
            for f in dataclasses.fields(cfg) if f.name != "seed"}


def _write_run(out: Path, command: str, parameters: dict, seed: int | None,
               inputs: dict[Path, bytes], texts: dict[str, str], t0: float,
               note: str = "") -> None:
    """Write a run's artifacts and its ``manifest.json`` into ``out``, then say so.

    The manifest records the sha256 of the bytes the command parsed from each
    input and wrote for each artifact, and the wall time since ``t0``.
    """
    # Imported here: it loads OpenSSL, which only the commands that write a run need.
    import hashlib

    try:
        out.mkdir(parents=True, exist_ok=True)
        outputs = {}
        for name, text in texts.items():
            data = text.encode()
            (out / name).write_bytes(data)
            outputs[name] = hashlib.sha256(data).hexdigest()
        manifest = {
            "command": command,
            "parameters": parameters,
            "seed": seed,
            "version": __version__,
            "inputs": {str(path): hashlib.sha256(raw).hexdigest() for path, raw in inputs.items()},
            "outputs": outputs,
            "wallClockSeconds": time.monotonic() - t0,
        }
        (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    except OSError as exc:  # a write that fails once its file is open names no file
        raise OSError(exc.errno, exc.strerror, exc.filename or str(out)) from exc
    click.echo(f"wrote {', '.join(texts)} to {out}{note}")


def _render_pairs(pairs: list[tuple[str, object]], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(dict(pairs), indent=2)
    if fmt == "csv":
        lines = [",".join(str(k) for k, _ in pairs), ",".join(_csv_cell(v) for _, v in pairs)]
        return "\n".join(lines)
    width = max(len(k) for k, _ in pairs)
    return "\n".join(f"{k:<{width}}  {_table_cell(v)}" for k, v in pairs)


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.6f}"
    if isinstance(v, (list, tuple)):
        return ";".join(str(x) for x in v)
    return str(v)


def _table_cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.4f}"
    if isinstance(v, (list, tuple)):
        return ", ".join(str(x) for x in v) if v else "-"
    if v is None:
        return "-"
    return str(v)


_format_option = click.option(
    "--format", "fmt", type=click.Choice(["table", "json", "csv"]), default="table",
    show_default=True, help="Output rendering."
)


def _search_options(fn):
    # One flag per SearchConfig field, passed under the field's name with the field's default.
    for deco in reversed([
        click.option("--seed", type=int, default=_DEFAULTS.seed, show_default=True),
        click.option("--strategy", type=click.Choice(_STRATEGIES),
                     default=_DEFAULTS.strategy, show_default=True,
                     help="Climb to a local optimum, anneal, or walk on past local optima "
                          "with a tabu list; each restart is one climb, anneal or walk."),
        click.option("--restarts", type=int, default=_DEFAULTS.restarts, show_default=True),
        click.option("--iters", "max_iters", type=int, default=_DEFAULTS.max_iters,
                     show_default=True, help="Move-evaluation budget per restart."),
        click.option("--time-budget", type=float, default=_DEFAULTS.time_budget,
                     help="Wall-clock cap in seconds (makes results budget-dependent)."),
        click.option("--workers", type=int, default=_DEFAULTS.workers, show_default=True,
                     help="Concurrent restarts; the result is identical to serial execution."),
        click.option("--objective", type=click.Choice(_OBJECTIVES), default=_DEFAULTS.objective,
                     show_default=True,
                     help="Maximize the contraction or the augmented efficiency "
                          "(e_aug needs --strategy anneal)."),
    ]):
        fn = deco(fn)
    return fn


@click.group()
@click.version_option(__version__)
def main():
    """Augmented row-column designs for rectangular arrays."""


# ---------------------------------------------------------------------------


@main.command("plan")
@click.option("--checks", "-k", "k", type=int, required=True, help="Number of check treatments.")
@click.option("--prop", type=float, default=None, help="Target proportion of plots for checks.")
@click.option("--test-lines", type=int, default=None, help="Number of test lines to accommodate.")
@click.option("--grid", type=str, default=None, metavar="RxC", help="Fixed grid, e.g. 8x12.")
@click.option("--orient", type=click.Choice(["auto", "rows", "cols"]), default="auto",
              show_default=True, help="Which grid dimension becomes the treatment-row axis v.")
@_format_option
@_user_errors_exit_2
def cmd_plan(k, prop, test_lines, grid, orient, fmt):
    """Choose trial dimensions (v, s, k) from requirements."""
    if grid is not None:
        if not (m := re.fullmatch(r"([0-9]+)[xX]([0-9]+)", grid)):
            raise click.BadParameter(f"expected RxC, e.g. 8x12; got {grid!r}", param_hint="--grid")
        result = plan_fixed_grid(int(m[1]), int(m[2]), k, orientation=orient)
    else:
        if prop is None or test_lines is None:
            raise click.UsageError("either --grid or both --prop and --test-lines are required")
        result = plan_dimensions(k, prop, test_lines)
    d = result.to_dict()
    click.echo(_render_pairs(list(d.items()), fmt))


# ---------------------------------------------------------------------------


@main.command("search")
@click.option("--v", type=int, required=True, help="Rows of the augmented design.")
@click.option("--s", type=int, required=True, help="Columns.")
@click.option("--k", type=int, required=True, help="Checks.")
@_search_options
@click.option("--out", type=click.Path(file_okay=False, path_type=Path), default=None,
              help="Directory for contraction.txt, search.json, manifest.json.")
@_user_errors_exit_2
def cmd_search(v, s, k, out, **options):
    """Search for an efficient contraction and write or print it."""
    t0 = time.monotonic()
    cfg = SearchConfig(**options)
    result = search_contraction(v, s, k, cfg)
    if out is None:
        click.echo(format_design(result.best), nl=False)
        click.echo(f"# objective {result.objective:.6f} (restart {result.restart_of_best})")
        return
    texts = {"contraction.txt": format_design(result.best), "search.json": result.to_json() + "\n"}
    _write_run(out, "search", dict(v=v, s=s, k=k, **_manifest_options(cfg)), cfg.seed, {}, texts,
               t0, f" (objective {result.objective:.6f})")


# ---------------------------------------------------------------------------


@main.command("augment")
@click.argument("design_file", type=click.Path(path_type=Path))
@click.option("--out", type=click.Path(file_okay=False, path_type=Path), default=None,
              help="Directory for augmented.txt and manifest.json.")
@_user_errors_exit_2
def cmd_augment(design_file, out):
    """Expand a contraction file into the augmented design."""
    t0 = time.monotonic()
    data, text = _read_file(design_file)
    design = parse_design(text)
    if not isinstance(design, ContractionDesign):
        raise InvalidDesignError(f"{design_file} holds an augmented design, not a contraction")
    augmented = augment(design)
    if out is None:
        click.echo(format_design(augmented), nl=False)
        return
    _write_run(out, "augment", {"designFile": str(design_file)}, None, {design_file: data},
               {"augmented.txt": format_design(augmented)}, t0)


# ---------------------------------------------------------------------------


@main.command("evaluate")
@click.argument("design_file", type=click.Path(path_type=Path))
@click.option("--direct/--no-direct", default=False, show_default=True,
              help="Also run the full-array eigendecomposition route on contractions.")
@_format_option
@_user_errors_exit_2
def cmd_evaluate(design_file, direct, fmt):
    """Compute the efficiency report of a design file."""
    design = read_design(design_file)
    if isinstance(design, ContractionDesign):
        d = full_report(design, include_direct=direct).to_dict()
        pairs = list(d.items())
        if fmt == "table":
            pairs = [(name, d[name]) for name in
                     ("eCon", "cBarV", "cBarS", "eDual", "eAugFormula", "eAugDirect",
                      "generallyBalanced")]
            pairs.append(("cefsContraction", f"{len(d['cefsContraction'])} values"))
        click.echo(_render_pairs(pairs, fmt))
        return
    value = e_aug_direct(design)
    pairs = [("kind", "augmented"), ("v", design.v), ("s", design.s), ("k", design.k),
             ("vStar", design.v_star), ("eAugDirect", value)]
    click.echo(_render_pairs(pairs, fmt))


# ---------------------------------------------------------------------------


def _read_plan(path: Path) -> tuple[bytes, tuple[int, int, int]]:
    data, text = _read_file(path)
    try:
        plan = json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deeply to parse
        raise ParseError(f"{path} is not a plan JSON: {exc}") from exc
    dims = {key: plan.get(key) if isinstance(plan, dict) else None for key in "vsk"}
    if _count_violations(**dims):
        raise ParseError(f"{path} needs integer 'v', 's' and 'k' entries")
    return data, tuple(dims.values())


@main.command("generate")
@click.option("--v", type=int, default=None, help="Rows of the augmented design.")
@click.option("--s", type=int, default=None, help="Columns.")
@click.option("--k", type=int, default=None, help="Checks.")
@click.option("--plan", "plan_file", type=click.Path(path_type=Path), default=None,
              help="Read v, s, k from a plan JSON instead.")
@_search_options
@click.option("--direct/--no-direct", default=False, show_default=True,
              help="Include the direct-route efficiency in the report (O((vs)^3)).")
@click.option("--out", type=click.Path(file_okay=False, path_type=Path), default=Path("."),
              show_default=True, help="Output directory.")
@_user_errors_exit_2
def cmd_generate(v, s, k, plan_file, direct, out, **options):
    """Search, augment, and report in one run, writing all artifacts."""
    t0 = time.monotonic()
    inputs = {}
    if plan_file is not None:
        inputs[plan_file], (v, s, k) = _read_plan(plan_file)
    if v is None or s is None or k is None:
        raise click.UsageError("either --plan or all of --v, --s, --k are required")

    cfg = SearchConfig(**options)
    result = search_contraction(v, s, k, cfg)
    augmented = augment(result.best)
    report = full_report(result.best, include_direct=direct)

    texts = {
        "contraction.txt": format_design(result.best),
        "augmented.txt": format_design(augmented),
        "report.json": report.to_json() + "\n",
    }
    params = dict(v=v, s=s, k=k, **_manifest_options(cfg), direct=direct,
                  planFile=str(plan_file) if plan_file else None)
    _write_run(out, "generate", params, cfg.seed, inputs, texts, t0,
               f" (objective {result.objective:.6f}, eAugFormula {report.e_aug_formula:.6f})")


# ---------------------------------------------------------------------------


@main.command("reproduce-table1")
@click.option("--formula-only", is_flag=True, default=False,
              help="Skip the searches; only check the closed form against published values.")
@click.option("--seed", type=int, default=_DEFAULTS.seed, show_default=True)
@click.option("--restarts", type=int, default=_DEFAULTS.restarts, show_default=True)
@click.option("--iters", "max_iters", type=int, default=_DEFAULTS.max_iters, show_default=True)
@_format_option
@_user_errors_exit_2
def cmd_reproduce_table1(formula_only, seed, restarts, max_iters, fmt):
    """Recompute the bundled 21-row reference table.

    For every row the closed form applied to the published summaries must
    reproduce the published six-decimal efficiency within 1e-4; with searches
    enabled, the achieved values for a fresh design are reported alongside.
    """
    cfg = SearchConfig(seed=seed, restarts=restarts, max_iters=max_iters)
    rows = []
    failures = 0
    for ref in REFERENCE_ROWS:
        from_printed = e_aug_formula(ref.v_star, ref.v, ref.s, ref.k, ref.e_con, ref.c_bar_s)
        ok = abs(from_printed - ref.e_aug) <= 1e-4
        failures += 0 if ok else 1
        row = {
            "k": ref.k, "v": ref.v, "s": ref.s, "rBar": ref.r_bar,
            "eAugPublished": ref.e_aug,
            "eAugFromPublished": round(from_printed, 6),
            "formulaCheck": "pass" if ok else "FAIL",
        }
        if not formula_only:
            report = full_report(search_contraction(ref.v, ref.s, ref.k, cfg).best)
            row.update({
                "eConFound": round(report.e_con, 4),
                "cBarSFound": round(report.c_bar_s, 4),
                "eDualFound": round(report.e_dual, 4),
                "generallyBalanced": report.generally_balanced,
                "eAugFound": round(report.e_aug_formula, 6),
            })
        rows.append(row)

    if fmt == "json":
        click.echo(json.dumps(rows, indent=2))
    else:
        header = list(rows[0])
        sep = "," if fmt == "csv" else "  "
        click.echo(sep.join(header))
        for row in rows:
            click.echo(sep.join(_csv_cell(row[h]) if fmt == "csv" else _table_cell(row[h]).rjust(len(h))
                               for h in header))
    click.echo(f"# formula check: {len(rows) - failures}/{len(rows)} rows pass", err=fmt == "json")
    if failures:
        raise SystemExit(2)


if __name__ == "__main__":
    main()
