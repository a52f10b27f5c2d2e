"""Command-line surface: weight generation, verification, cost tables, analytics.

Subcommands

    gen-weights   draw a seeded WeightSet and save it as a tensor archive
    verify        decode a sequence through both decode paths, emit the
                  agreement report, fail (exit 1) on tolerance violation
    memory        cache-size table: bytes, MiB, byte ratio, formula ratio
    flops         per-step decode FLOPs and scan overheads per mechanism
    ablate        sweep low-rank residual ranks at one scale
    diversity     head-similarity matrix + spectra from a weight archive
    svd-compare   learned residuals vs truncated-SVD optimum per head
    gradcheck     finite-difference validation of the projection gradients

Exit codes: 0 success; 1 validation failure (a tolerance was exceeded or an
input file failed validation); 2 usage error. CSV output always starts with
a header row; not-applicable cells are left empty. All numbers use dot
decimals regardless of locale.

Memory-table ratio columns: ``ratio_vs_mha`` is the byte ratio of the row's
actual configuration against the full-cache baseline under the same query.
``ratio_formula`` is the closed-form ratio at the scale's deployed residual
rank (``table_rank``), the number quoted alongside measured tables; it is
left empty for the latent mechanism, whose ratio depends on the stream-
accounting convention rather than the config alone.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
from dataclasses import replace
from functools import cache

import numpy as np

from .cache import equivalence_report
from .config import AttentionConfig, Mechanism, RngSpec, require_int
from .costs import (
    DEFAULT_MLA_STREAMS,
    MIB,
    CostQuery,
    ablation_table,
    cache_ratio,
    cost_report,
    decode_flops,
    decode_flops_breakdown,
)
from .diversity import diversity_report, factorization_gap
from .errors import ConfigurationError, LabError
from .gradcheck import GRADCHECK_TOL, gradcheck_rows
from .archive import read_archive, write_archive
from .presets import MEASURED_RANK, PRESET_NAMES, config_for, get_preset
from .weights import init_weights

EQUIVALENCE_TOL = {"float64": 1e-9, "float32": 1e-5}

MECHANISM_ORDER = tuple(Mechanism)


def _write_csv(out: str, columns: dict[str, str], rows) -> None:
    """Write ``rows`` (dicts) to ``out`` ("-": stdout) under a header of
    ``columns``' names; a cell is its column's format applied to the row's
    value, and None is an empty cell."""
    with contextlib.nullcontext(sys.stdout) if out == "-" else open(out, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(columns)
        writer.writerows(["" if row[c] is None else fmt.format(row[c])
                          for c, fmt in columns.items()] for row in rows)


def _apply_overrides(config: AttentionConfig, sets: list[str] | None) -> AttentionConfig:
    if not sets:
        return config
    fields = config.to_json_dict()
    for item in sets:
        if "=" not in item:
            raise ConfigurationError(f"--set expects field=value, got {item!r}")
        key, raw = item.split("=", 1)
        if key == "mechanism":  # the tables label rows by the mechanism they asked for
            raise ConfigurationError("--set cannot change the mechanism; "
                                     "use --mechanism or --config-json")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        fields[key] = value
    return AttentionConfig.from_json_dict(fields)


def _load_config_json(path: str) -> AttentionConfig:
    with open(path, encoding="utf-8") as f:
        try:
            obj = json.load(f)
        except (ValueError, RecursionError) as e:  # bad UTF-8 or JSON, or nested too deep
            raise ConfigurationError(f"unreadable config JSON {path}: {e}") from e
    return AttentionConfig.from_json_dict(obj)


def _json_config(args) -> AttentionConfig | None:
    """The --config-json config, or None without one. The JSON is the whole
    config, so --preset, --mechanism and --rank beside it are rejected."""
    if not getattr(args, "config_json", None):
        return None
    mixed = [f"--{name}" for name in ("preset", "mechanism", "rank")
             if getattr(args, name, None) is not None]
    if mixed:
        raise ConfigurationError(f"--config-json excludes {', '.join(mixed)}")
    return _load_config_json(args.config_json)


def _preset_name(args) -> str:
    """--preset's value; called when there is no --config-json, so a missing
    --preset means neither config source was given (a usage error)."""
    if not getattr(args, "preset", None):
        raise ConfigurationError("provide --preset or --config-json")
    return args.preset


def _resolve_config(args) -> AttentionConfig:
    """Config from --config-json or --preset + --mechanism, plus --set."""
    config = _json_config(args)
    if config is None:
        config = config_for(_preset_name(args), args.mechanism or Mechanism.LRKV,
                            rank=getattr(args, "rank", None))
    return _apply_overrides(config, getattr(args, "set", None))


def _cmd_gen_weights(args) -> int:
    config = _resolve_config(args)
    # An unwritable --out fails here, before the draw; append mode creates
    # the file without truncating one that is already there.
    open(args.out, "a").close()
    w = init_weights(config, RngSpec(seed=args.seed))
    if args.dtype == "f32":
        w = w.astype(np.float32)
    write_archive(w, args.out)
    return 0


def _cmd_verify(args) -> int:
    config = _resolve_config(args)
    dtype = np.float64 if args.dtype == "f64" else np.float32
    rows = equivalence_report(
        config, RngSpec(seed=args.seed), T=args.tokens, trials=args.trials,
        dtype=dtype,
    )
    _write_csv(args.out, {"trial": "{}", "mechanism": "{}", "T": "{}", "dtype": "{}",
                          "max_logit_diff": "{:.3e}", "max_out_diff": "{:.3e}",
                          "explicit_elems_touched": "{}", "factored_elems_touched": "{}"},
               rows)
    tol = EQUIVALENCE_TOL[np.dtype(dtype).name]
    failed = any(r[key] is not None and r[key] > tol
                 for r in rows for key in ("max_logit_diff", "max_out_diff"))
    return 1 if failed else 0


def _memory_row(config, preset, args) -> dict:
    q = CostQuery(config=config, T=args.tokens, batch=args.batch,
                  bytes_per_element=args.bytes,
                  mla_latent_streams=args.mla_streams)
    rep = cost_report(q)
    if config.mechanism is Mechanism.MLA:
        formula = None
    elif config.mechanism is Mechanism.LRKV and preset is not None:
        formula = cache_ratio(replace(config, r=preset.table_rank))
    else:
        formula = cache_ratio(config)
    return {"mechanism": config.mechanism.value, "cache_bytes": rep["cache_bytes"],
            "cache_mib": rep["cache_bytes"] / MIB, "ratio_vs_mha": rep["cache_ratio_vs_mha"],
            "ratio_formula": formula, "kv_param_count": rep["kv_param_count"]}


def _cmd_memory(args) -> int:
    config = _json_config(args)
    if config is not None:
        rows = [_memory_row(_apply_overrides(config, args.set), None, args)]
    else:
        preset = get_preset(_preset_name(args))
        rows = []
        for mech in MECHANISM_ORDER:
            config = _apply_overrides(config_for(preset, mech, rank=args.rank), args.set)
            rows.append(_memory_row(config, preset, args))
    _write_csv(args.out, {"mechanism": "{}", "cache_bytes": "{}", "cache_mib": "{:.1f}",
                          "ratio_vs_mha": "{:.3f}", "ratio_formula": "{:.3f}",
                          "kv_param_count": "{}"}, rows)
    return 0


def _cmd_flops(args) -> int:
    preset = get_preset(args.preset)
    rows = []
    # Grouped K/V (MHA, MQA, GQA) is costed along its explicit path.
    paths = {Mechanism.MLA: ("reconstruct", "factored"), Mechanism.LRKV: ("factored",)}
    for mech in MECHANISM_ORDER:
        config = _apply_overrides(config_for(preset, mech, rank=args.rank), args.set)
        q = CostQuery(config=config, T=args.tokens, batch=1,
                      bytes_per_element=2)
        for path in paths.get(mech, ("explicit",)):
            mla_path = path if mech is Mechanism.MLA else "reconstruct"
            total, overhead = decode_flops(q, mla_path=mla_path)
            rows.append({"mechanism": mech.value, "decode_path": path, "T": args.tokens,
                         "decode_flops": total, "overhead_vs_mha": overhead,
                         **decode_flops_breakdown(q, mla_path=mla_path)})
    _write_csv(args.out, {"mechanism": "{}", "decode_path": "{}", "T": "{}",
                          "decode_flops": "{}", "overhead_vs_mha": "{:.6f}",
                          "proj_new_token": "{}", "reconstruct": "{}", "scan": "{}",
                          "lift": "{}", "softmax": "{}"}, rows)
    return 0


def _cmd_ablate(args) -> int:
    preset = get_preset(args.preset)
    try:
        ranks = [int(x) for x in args.ranks.split(",") if x != ""]
    except ValueError:
        raise ConfigurationError(
            f"--ranks expects comma-separated integers, got {args.ranks!r}") from None
    base = _apply_overrides(config_for(preset, Mechanism.LRKV), args.set)
    _write_csv(args.out, {"r": "{}", "cache_ratio": "{:.6f}", "cache_pct": "{:.3f}",
                          "cache_bytes": "{}", "kv_param_count": "{}", "decode_flops": "{}",
                          "flops_overhead_vs_mha": "{:.6f}"},
               ablation_table(base, ranks, T=args.tokens))
    return 0


def _cmd_diversity(args) -> int:
    w = read_archive(args.weights)
    rep = diversity_report(w, w.config)
    prefix = args.out_prefix
    heads = {f"head_{h}": "{:.9f}" for h in range(rep["H"])}
    _write_csv(f"{prefix}_similarity.csv", heads,
               [dict(zip(heads, row)) for row in rep["similarity"]])
    variants = ("uncentered", "centered")
    components = [
        {"variant": v, "component": i, "eigenvalue": rep[v]["eigenvalues"][i],
         "variance_fraction": rep[v]["variance_fractions"][i],
         "cumulative_variance": rep[v]["cumulative_variance"][i]}
        for v in variants for i in range(rep["H"])
    ]
    _write_csv(f"{prefix}_spectrum.csv", {"variant": "{}", "component": "{}",
                                          "eigenvalue": "{:.9e}",
                                          "variance_fraction": "{:.9f}"}, components)
    _write_csv(f"{prefix}_cumulative.csv", {"variant": "{}", "component": "{}",
                                            "cumulative_variance": "{:.9f}"}, components)
    degenerate_heads = ";".join(str(h) for h in rep["degenerate_heads"])
    _write_csv(f"{prefix}_effective_rank.csv",
               {"variant": "{}", "effective_rank_abs": "{:.6f}",
                "effective_rank_pct": "{:.6f}", "n_components_for_90pct": "{}",
                "degenerate": "{:d}", "degenerate_heads": "{}"},
               [{"variant": v, **rep[v], "degenerate_heads": degenerate_heads}
                for v in variants])
    return 0


def _cmd_svd_compare(args) -> int:
    w = read_archive(args.weights)
    ref = read_archive(args.reference)
    if args.rank is not None:  # svd_truncate's range, as a usage error
        require_int("--rank", args.rank, 0, w.config.d_h)
    _write_csv(args.out, {"head": "{}", "path": "{}", "e_learned": "{:.9e}",
                          "e_opt": "{:.9e}", "ratio": "{:.9f}"},
               factorization_gap(w, w.config, ref, r=args.rank))
    return 0


def _cmd_gradcheck(args) -> int:
    config = _apply_overrides(_load_config_json(args.config_json), args.set)
    rows = gradcheck_rows(config, RngSpec(seed=args.seed),
                          instances=args.instances)
    _write_csv(args.out, {"instance": "{}", "path": "{}", "target": "{}",
                          "fd_mode": "{}", "rel_err": "{:.3e}"}, rows)
    failed = any(r["rel_err"] > GRADCHECK_TOL for r in rows)
    return 1 if failed else 0


def _add_config_source(p, mechanism=True, config_json=True, rank=True):
    """Add --preset and --set, and those of --config-json, --mechanism and
    --rank that the command reads; without --config-json, --preset is required."""
    p.add_argument("--preset", choices=PRESET_NAMES, required=not config_json)
    if config_json:
        p.add_argument("--config-json", metavar="PATH")
    if mechanism:
        # Default None, read as lrkv, so that an explicit --mechanism is seen.
        p.add_argument("--mechanism", choices=[m.value for m in Mechanism],
                       help="attention mechanism (default: lrkv)")
    if rank:
        p.add_argument("--rank", type=int, default=None,
                       help=f"low-rank residual rank (default: {MEASURED_RANK})")
    p.add_argument("--set", action="append", metavar="FIELD=VALUE",
                   help="override a config field (repeatable)")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process on first use.

    Every ``run_cli`` call parses against this one object, so it must never
    be mutated (no ``add_argument``, ``set_defaults`` or ``prog`` change
    after the build). Parsing keeps no state on it: defaults, each
    subcommand's ``func`` and the ``--set`` lists all land in a fresh
    Namespace per call.
    """
    parser = argparse.ArgumentParser(
        prog="attnlab",
        description="KV-cache attention laboratory: decode paths, cost models, "
                    "head-diversity analytics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-weights", help="draw seeded weights into an archive")
    _add_config_source(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dtype", choices=("f32", "f64"), default="f64")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_weights)

    p = sub.add_parser("verify", help="explicit vs factored decode agreement")
    _add_config_source(p)
    p.add_argument("--tokens", type=int, default=256)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dtype", choices=("f32", "f64"), default="f64")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("memory", help="cache-size table")
    _add_config_source(p, mechanism=False)
    p.add_argument("--tokens", type=int, default=2048)
    p.add_argument("--batch", type=int, default=1)
    p.add_argument("--bytes", type=int, default=2)
    p.add_argument("--mla-streams", type=int, default=DEFAULT_MLA_STREAMS,
                   choices=(1, 2))
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_memory)

    p = sub.add_parser("flops", help="decode FLOPs per mechanism")
    _add_config_source(p, mechanism=False, config_json=False)
    p.add_argument("--tokens", type=int, default=2048)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_flops)

    # No abbreviations: ablate reads no --rank, so "--rank 5" must not pass
    # as "--ranks 5".
    p = sub.add_parser("ablate", help="sweep low-rank residual ranks", allow_abbrev=False)
    _add_config_source(p, mechanism=False, config_json=False, rank=False)
    p.add_argument("--ranks", default="8,16,32,64,128")
    p.add_argument("--tokens", type=int, default=2048)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("diversity", help="head-similarity analytics from an archive")
    p.add_argument("--weights", required=True)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=_cmd_diversity)

    p = sub.add_parser("svd-compare", help="learned residuals vs SVD optimum")
    p.add_argument("--weights", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_svd_compare)

    p = sub.add_parser("gradcheck", help="finite-difference gradient validation")
    p.add_argument("--config-json", required=True, metavar="PATH")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, default=20)
    p.add_argument("--set", action="append", metavar="FIELD=VALUE")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_gradcheck)

    return parser


def run_cli(argv: list[str]) -> int:
    """Parse and execute; returns the process exit code (0/1/2)."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else 0
    try:
        return args.func(args)
    except ConfigurationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except LabError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> int:
    return run_cli(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
