"""Command-line front end.

Commands:
  build     build a chain from a config; writes the chain file and an audit
            log, prints a summary
  schedule  print the first entries of the config's schedule
  dim       trends and comparator verdicts for the config's comparisons
            against a built chain; writes CSVs, SVG plots, and a JSON report
  divide    dividing experiments from the config: certificates plus the
            dimension-drop survey; writes a JSON report and trend CSVs
  export    re-export a chain file: final structure JSON and a stage table

Configs are YAML: plugin, stages, schedule (fair or seeded), horizon,
comparator {window, bound}, named sets, comparisons, dividing experiments.
Parameter bindings take element ids or the anchor "first_at_level <level>",
resolved against the final stage.

Exit codes: 0 success; 1 a condition demanded by --expect failed; 2 config
or usage error; 3 internal invariant violation or any other exception.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import yaml

from .construction import (
    InternalFaultError,
    StageChain,
    build_chain,
    load_chain,
    serialize_chain,
)
from .dimension import VERDICTS, dim_compare, export_trend_csv, trend
from .dividing import certify_dividing, find_dimension_drop
from .evaluator import DefinableSet
from .formula import (
    Formula,
    LevelOrdinal,
    ParseError,
    ScheduleEntry,
    enumerate_schedule,
    free_vars,
    parse,
    parse_level,
    roles,
    seeded_schedule,
)
from .plots import trend_plot_svg
from .structures import FinStructure, canonical_json
from .theory import PLUGINS, get_plugin


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SetSpec:
    formula: Formula
    vars: tuple[str, ...]
    params: tuple[tuple[str, object], ...]  # var -> id or anchor text
    cap: Optional[LevelOrdinal]


@dataclass(frozen=True)
class DivideSpec:
    name: str
    phi: Formula
    psi: str
    a_raw: tuple[object, ...]
    b_raw: tuple[object, ...]
    k: int
    L: int


@dataclass(frozen=True)
class Config:
    plugin: str
    stages: int
    schedule_kind: str
    horizon: int
    window: int
    bound: float
    sets: dict[str, SetSpec]
    comparisons: tuple[tuple[str, str], ...]
    dividing: tuple[DivideSpec, ...]


def _parse_cap(raw) -> Optional[LevelOrdinal]:
    if raw is None:
        return None
    try:
        return parse_level(str(raw))
    except ValueError as e:
        raise ConfigError(str(e))


def _shaped(value, kind: type, what: str):
    """A config value of the given shape; null stands for an empty one."""
    if value is None:
        return kind()
    if not isinstance(value, kind):
        raise ConfigError(f"{what} must be a {'mapping' if kind is dict else 'list'}")
    return value


def _file_name(name, what: str) -> str:
    """A set or experiment name, which output file names are made from:
    text, with no path separator, and not empty, . or .."""
    if not isinstance(name, str) or name in ("", ".", "..") or {os.sep, os.altsep, "\0"} & set(name):
        raise ConfigError(f"{what} name {name!r} must be a plain file name")
    return name


def _known(spec: dict, keys: str, where: str) -> None:
    """Each key of spec must be one of the space-separated keys: an unknown
    one would otherwise be dropped without a word."""
    for key in spec:
        if key not in keys.split():
            raise ConfigError(f"{where}: unknown key {key!r}")


# libyaml's safe loader where PyYAML was built with it: the same documents,
# parsed in C
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_config(path: str) -> Config:
    try:
        doc = yaml.load(Path(path).read_text(), Loader=_YAML_LOADER)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}")
    except yaml.YAMLError as e:
        raise ConfigError(f"bad YAML: {e}")
    if not isinstance(doc, dict):
        raise ConfigError("config must be a mapping")
    _known(doc, "plugin stages schedule horizon comparator sets comparisons dividing", "config")
    name = doc.get("plugin")
    if not isinstance(name, str) or name not in PLUGINS:
        raise ConfigError(
            f"unknown plugin {name!r}; available: {', '.join(sorted(PLUGINS))}"
        )
    sig = get_plugin(name).signature
    stages = doc.get("stages", 0)
    if type(stages) is not int or stages < 0:
        raise ConfigError("stages must be a nonnegative integer")
    kind = doc.get("schedule", "seeded")
    if kind not in ("seeded", "fair"):
        raise ConfigError("schedule must be 'seeded' or 'fair'")
    horizon = doc.get("horizon", 4)
    if type(horizon) is not int or horizon < 1:
        raise ConfigError("horizon must be a positive integer")
    comp = _shaped(doc.get("comparator"), dict, "comparator")
    _known(comp, "window bound", "comparator")
    # type() and not isinstance(): a bool is no number here, although
    # Python counts true as the int 1
    window = comp.get("window", 10)
    if type(window) is not int or window < 2:
        raise ConfigError("comparator window must be an integer >= 2")
    bound = comp.get("bound", 2.0)
    if type(bound) not in (int, float) or not (math.isfinite(bound) and bound > 0):
        raise ConfigError("comparator bound must be a finite positive number")

    def parse_formula(text) -> Formula:
        if not isinstance(text, str):
            raise ConfigError(f"formula must be text, got {text!r}")
        try:
            return parse(text, sig)
        except ParseError as e:
            raise ConfigError(f"bad formula {text!r}: {e}")

    sets: dict[str, SetSpec] = {}
    for sname, spec in _shaped(doc.get("sets"), dict, "sets").items():
        _file_name(sname, "set")
        if not isinstance(spec, dict):
            raise ConfigError(f"set {sname!r} must be a mapping")
        _known(spec, "formula params split cap", f"set {sname!r}")
        f = parse_formula(spec.get("formula"))
        params_raw = spec.get("params") or {}
        if not isinstance(params_raw, dict):
            raise ConfigError(f"set {sname!r}: params must be a mapping")
        split = spec.get("split")
        if split is None:
            split = [v for v in roles(f)[0] if v not in params_raw]
        elif not (
            isinstance(split, list)
            and all(isinstance(v, str) and v not in params_raw for v in split)
            and len(set(split)) == len(split)
        ):
            raise ConfigError(
                f"set {sname!r}: split must be a list of distinct variables, none a parameter"
            )
        free = free_vars(f)
        for v in list(split) + list(params_raw):
            if v not in free:
                raise ConfigError(f"set {sname!r}: {v!r} is not free in the formula")
        leftover = free - set(split) - set(params_raw)
        if leftover:
            raise ConfigError(f"set {sname!r}: unbound variables {sorted(leftover)}")
        sets[sname] = SetSpec(
            f,
            tuple(split),
            tuple(sorted(params_raw.items())),
            _parse_cap(spec.get("cap")),
        )

    comparisons = []
    for row in _shaped(doc.get("comparisons"), list, "comparisons"):
        if not (isinstance(row, list) and len(row) == 2):
            raise ConfigError("each comparison must be a [left, right] pair")
        for side in row:
            if not isinstance(side, str) or side not in sets:
                raise ConfigError(f"comparison references unknown set {side!r}")
        comparisons.append((row[0], row[1]))

    dividing = []
    for i, spec in enumerate(_shaped(doc.get("dividing"), list, "dividing")):
        if not isinstance(spec, dict):
            raise ConfigError("each dividing experiment must be a mapping")
        dname = _file_name(spec.get("name", f"experiment{i}"), "dividing experiment")
        _known(spec, "name phi psi a b k L", f"dividing {dname!r}")
        if any(d.name == dname for d in dividing):
            raise ConfigError(f"two dividing experiments are named {dname!r}")
        for stem in (f"{dname}.psi", f"{dname}.phi"):
            if stem in sets:
                raise ConfigError(f"set {stem!r} would share {stem}.csv with experiment {dname!r}")
        psi = spec.get("psi")
        if not isinstance(psi, str) or psi not in sets:
            raise ConfigError(f"dividing {dname!r}: unknown psi set {psi!r}")
        k = spec.get("k", 2)
        L = spec.get("L", 3)
        if not (type(k) is int and type(L) is int and 1 <= k <= L):
            raise ConfigError(f"dividing {dname!r}: need integers 1 <= k <= L")
        dividing.append(
            DivideSpec(
                dname,
                parse_formula(spec.get("phi")),
                psi,
                tuple(_shaped(spec.get("a"), list, f"dividing {dname!r}: a")),
                tuple(_shaped(spec.get("b"), list, f"dividing {dname!r}: b")),
                k,
                L,
            )
        )

    return Config(
        name, stages, kind, horizon, window, float(bound),
        sets, tuple(comparisons), tuple(dividing),
    )


def resolve_anchor(M: FinStructure, raw) -> int:
    """Element binding: a plain id, or "first_at_level <level>" for the
    least id sitting at exactly that level."""
    if type(raw) is int:
        if raw not in M:
            raise ConfigError(f"element id {raw} not in the structure")
        return raw
    if isinstance(raw, str):
        parts = raw.split()
        if len(parts) == 2 and parts[0] == "first_at_level":
            lvl = _parse_cap(parts[1])
            ids = [e for e in M.universe if M.level_of(e) == lvl]
            if not ids:
                raise ConfigError(f"no element at level {parts[1]}")
            return min(ids)
    raise ConfigError(f"bad element binding {raw!r}")


def build_set(spec: SetSpec, M: FinStructure) -> DefinableSet:
    params = tuple((v, resolve_anchor(M, raw)) for v, raw in spec.params)
    return DefinableSet(spec.formula, spec.vars, params, spec.cap)


def _schedule_for(cfg: Config, count: int) -> tuple[ScheduleEntry, ...]:
    plugin = get_plugin(cfg.plugin)
    if cfg.schedule_kind == "fair":
        return tuple(enumerate_schedule(plugin.signature, count))
    return tuple(seeded_schedule(plugin.signature, plugin.seeds(), count, cfg.horizon))


def _level_histogram(M: FinStructure, ids: Sequence[int]) -> str:
    counts = Counter(map(M.level_of, ids))
    return " ".join(f"{lv.render()}:{n}" for lv, n in sorted(counts.items()))


def _audit_text(chain: StageChain) -> str:
    lines = []
    for audit in chain.audits:
        for ea in audit.entries:
            cases = [rec.case for rec in ea.records]
            lines.append(
                f"stage {audit.stage} pos {ea.position} level {ea.level.render()} "
                f"|V|={ea.v_size} skipped={ea.skipped} "
                f"internal={ea.internal} oracle={cases.count(2)} unrealizable={cases.count(3)}"
            )
    return "\n".join(lines) + "\n"


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    print(f"wrote {path}")


def cmd_build(cfg: Config, out_dir: Path) -> int:
    n = cfg.stages
    chain = build_chain(get_plugin(cfg.plugin), n, schedule=_schedule_for(cfg, n))
    final = chain.final
    print(
        f"plugin {cfg.plugin}, {n} stages, schedule {cfg.schedule_kind} "
        f"(horizon {cfg.horizon})"
    )
    print(f"final size {final.size()}; levels {_level_histogram(final, final.universe)}")
    _write(out_dir / f"{cfg.plugin}.chain.json", serialize_chain(chain))
    _write(out_dir / f"{cfg.plugin}.audit.txt", _audit_text(chain))
    return 0


def cmd_schedule(cfg: Config, count: int) -> int:
    for e in _schedule_for(cfg, count):
        print(
            f"{e.position:4d}  {e.level.render():<8} "
            f"x={','.join(e.x_vars) or '-'} y={','.join(e.y_vars) or '-'}  {e.formula}"
        )
    return 0


def _load_chain_file(path: str, plugin: Optional[str] = None) -> StageChain:
    """Load a chain file; with a plugin name, also insist the chain was
    built for that plugin."""
    try:
        chain = load_chain(Path(path).read_text())
    except OSError as e:
        raise ConfigError(f"cannot read chain: {e}")
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"bad chain file: {e}")
    if plugin is not None and chain.plugin_name != plugin:
        raise ConfigError(f"chain was built for {chain.plugin_name!r}, config says {plugin!r}")
    return chain


def cmd_dim(cfg: Config, chain: StageChain, out_dir: Path, expect: list[str]) -> int:
    final = chain.final
    report = {"window": cfg.window, "bound": cfg.bound, "comparisons": []}
    # every comparison is made before the first line is printed or written,
    # so a bad one leaves no output behind
    results = []
    for left, right in cfg.comparisons:
        t1 = trend(chain, build_set(cfg.sets[left], final), label=left)
        t2 = trend(chain, build_set(cfg.sets[right], final), label=right)
        results.append((left, right, t1, t2, dim_compare(t1, t2, cfg.window, cfg.bound)))
    for left, right, t1, t2, res in results:
        print(f"{left} vs {right}: {res.verdict} ({res.evidence})")
        csv1 = out_dir / f"{left}.csv"
        csv2 = out_dir / f"{right}.csv"
        plot = out_dir / f"{left}_vs_{right}.svg"
        _write(csv1, export_trend_csv(t1))
        _write(csv2, export_trend_csv(t2))
        _write(
            plot,
            trend_plot_svg(
                [t1, t2], window=cfg.window,
                caption=f"{left} vs {right}: {res.verdict}",
            ),
        )
        report["comparisons"].append(
            {
                "left": left,
                "right": right,
                "verdict": res.verdict,
                "evidence": res.evidence,
                "window_start": res.window_start,
                "window_end": res.window_end,
                "ds": [d if d is not None else "-inf-side" for d in res.ds],
                "csv": [csv1.name, csv2.name],
                "plot": plot.name,
            }
        )
    _write(out_dir / "dim_report.json", canonical_json(report) + "\n")
    return _check_expect(expect, _dim_holds([res.verdict for *_, res in results]))


def cmd_divide(
    cfg: Config, chain: StageChain, seed: int, out_dir: Path, expect: list[str]
) -> int:
    plugin = get_plugin(cfg.plugin)
    final = chain.final
    report = {"window": cfg.window, "bound": cfg.bound, "seed": seed, "experiments": []}
    # every experiment runs before the first line is printed or written, so
    # a bad one leaves no output behind
    results = []
    for spec in cfg.dividing:
        a_ids = tuple(resolve_anchor(final, r) for r in spec.a_raw)
        b_ids = tuple(resolve_anchor(final, r) for r in spec.b_raw)
        psi = build_set(cfg.sets[spec.psi], final)
        witness = certify_dividing(
            plugin, chain, spec.phi, a_ids, b_ids, spec.k, spec.L, seed=seed
        )
        drop = find_dimension_drop(
            chain, psi, spec.phi, a_ids, b_ids,
            window=cfg.window, bound=cfg.bound, seed=seed,
        )
        results.append((spec, a_ids, b_ids, witness, drop))
    for spec, a_ids, b_ids, witness, drop in results:
        psi_csv = out_dir / f"{spec.name}.psi.csv"
        phi_csv = out_dir / f"{spec.name}.phi.csv"
        _write(psi_csv, export_trend_csv(drop.psi_trend))
        _write(phi_csv, export_trend_csv(drop.base_trend))
        best = drop.best
        entry = {
            "name": spec.name,
            "phi": str(spec.phi),
            "psi": spec.psi,
            "a": list(a_ids),
            "b": list(b_ids),
            "k": spec.k,
            "L": spec.L,
            "certified": witness is not None,
            "certificate": None
            if witness is None
            else {
                "instances": [list(t) for t in witness.instances],
                "confirmed_subsets": [list(t) for t in witness.confirmations],
                "types_equal": list(witness.type_confirmations),
                "grown": witness.grown,
            },
            "candidates": drop.candidates_total,
            "skipped_late": [list(t) for t in drop.skipped_late],
            "n_diverges_neg": len(drop.diverging),
            "verdicts": [
                {
                    "instance": list(e.instance),
                    "verdict": e.result.verdict,
                    "d_final": e.result.d_final,
                }
                for e in drop.entries
            ],
            "best": None
            if best is None
            else {
                "instance": list(best.instance),
                "verdict": best.result.verdict,
                "evidence": best.result.evidence,
                "ds": [d if d is not None else "-inf-side" for d in best.result.ds],
            },
            "csv": [psi_csv.name, phi_csv.name],
        }
        report["experiments"].append(entry)
        cert_note = "certified" if witness is not None else "no certificate"
        print(
            f"{spec.name}: {cert_note} (k={spec.k}, L={spec.L}); "
            f"{drop.candidates_total} candidates, "
            f"{len(drop.diverging)} DivergesNeg, {len(drop.skipped_late)} late"
        )
        if best is not None:
            print(f"  best: instance {list(best.instance)} {best.result.evidence}")
    _write(out_dir / "divide_report.json", canonical_json(report) + "\n")
    holds = _divide_holds([(w is not None, d.any_diverges_neg) for *_, w, d in results])
    return _check_expect(expect, holds)


def _dim_holds(verdicts: list[str]) -> dict[str, bool]:
    """Whether each dim --expect token holds, given the comparisons'
    verdicts: verdict=V when every comparison reads V, any-verdict=V when
    some does. With no comparison, none holds."""
    return {
        f"{kind}={v}": bool(verdicts) and test(r == v for r in verdicts)
        for kind, test in (("verdict", all), ("any-verdict", any))
        for v in VERDICTS
    }


def _divide_holds(results: list[tuple[bool, bool]]) -> dict[str, bool]:
    """Whether each divide --expect token holds, given each experiment's
    (certified, dropped) pair: certified and drop when every experiment has
    them, not-certified when some experiment is not certified. With no
    experiment, none holds."""
    return {
        "certified": bool(results) and all(c for c, _ in results),
        "not-certified": any(not c for c, _ in results),
        "drop": bool(results) and all(d for _, d in results),
    }


_EXPECT_HOLDS = {"dim": _dim_holds, "divide": _divide_holds}


def _check_expect(expect: list[str], holds: dict[str, bool]) -> int:
    failed = [token for token in expect if not holds[token]]
    if failed:
        print(f"expectation failed: {', '.join(failed)}")
        return 1
    return 0


def cmd_export(chain: StageChain, stem: str, out_dir: Path) -> int:
    final = chain.final
    _write(out_dir / f"{stem}.final.json", final.to_json() + "\n")
    rows = ["stage,size,levels"]
    for n in range(chain.n_stages + 1):
        ids = final.universe[: chain.ends[n]]
        rows.append(f"{n},{len(ids)},{_level_histogram(final, ids)}")
    _write(out_dir / f"{stem}.stages.csv", "\n".join(rows) + "\n")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="levelsat",
        description="staged level structures: build chains, compare trends, "
        "run dividing experiments",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, config=True, chain=False):
        if config:
            p.add_argument("--config", required=True, help="YAML experiment config")
        if chain:
            p.add_argument("--chain", required=True, help="chain file from build")
        p.add_argument("--out-dir", default=".", help="directory for outputs")

    p_build = sub.add_parser("build", help="build and serialize a chain")
    common(p_build)

    p_sched = sub.add_parser("schedule", help="print schedule entries")
    p_sched.add_argument("--config", required=True)
    p_sched.add_argument("--count", type=int, default=20, help="how many entries")

    p_dim = sub.add_parser("dim", help="trend comparisons against a chain")
    common(p_dim, chain=True)
    p_dim.add_argument("--expect", action="append", default=[],
                       help="verdict=<V> or any-verdict=<V>; exit 1 if unmet")

    p_div = sub.add_parser("divide", help="dividing experiments against a chain")
    common(p_div, chain=True)
    p_div.add_argument("--seed", type=int, default=0,
                       help="seed for candidate subsampling")
    p_div.add_argument("--expect", action="append", default=[],
                       help="certified, not-certified, or drop; exit 1 if unmet")

    p_exp = sub.add_parser("export", help="re-export a chain file")
    p_exp.add_argument("--chain", required=True)
    p_exp.add_argument("--out-dir", default=".")

    args = ap.parse_args(argv)
    try:
        if args.command == "build":
            cfg = load_config(args.config)
            return cmd_build(cfg, Path(args.out_dir))
        if args.command == "schedule":
            cfg = load_config(args.config)
            return cmd_schedule(cfg, args.count)
        if args.command in ("dim", "divide"):
            known = _EXPECT_HOLDS[args.command]([])  # every token, none holding
            for token in args.expect:  # refused before any work
                if token not in known:
                    raise ConfigError(f"unknown --expect token {token!r} for {args.command}")
            cfg = load_config(args.config)
            chain = _load_chain_file(args.chain, cfg.plugin)
            if args.command == "dim":
                return cmd_dim(cfg, chain, Path(args.out_dir), args.expect)
            return cmd_divide(cfg, chain, args.seed, Path(args.out_dir), args.expect)
        if args.command == "export":
            chain = _load_chain_file(args.chain)
            stem = Path(args.chain).name.split(".")[0]
            return cmd_export(chain, stem, Path(args.out_dir))
        raise ConfigError(f"unknown command {args.command!r}")
    except InternalFaultError as e:
        print(f"internal invariant violation: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        # ConfigError, ParseError, OracleError, and the structure errors all
        # land here: bad input, not a bug
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception:  # any other escape is a bug too, never an unmet --expect
        import traceback  # imported here only: at the top it slows every start-up
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
