"""Command-line entry point: the three-stage pipeline, experiments and
dataset diagnostics.

The pipeline subcommands are thin layers over :mod:`repro.api`::

    python -m repro pretrain --config run.json --out artifact.npz
    python -m repro finetune --artifact artifact.npz --strategy eie-attn
    python -m repro evaluate --artifact artifact.npz --task link_prediction
    python -m repro serve --artifact artifact.npz --port 8471

Every pipeline subcommand accepts ``--config FILE`` (JSON produced by
``RunConfig.to_json`` — see ``python -m repro pretrain --dump-config``)
plus repeatable dotted overrides ``--set pretrain.beta=0.3``.  An artifact
embeds the config that produced it, so ``finetune``/``evaluate`` need no
config file.  The experiment harness is unchanged::

    python -m repro list
    python -m repro run table7 --scale tiny
    python -m repro profile meituan
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import obs as _obs
from .api import (ArtifactError, ConfigError, Pipeline, PretrainArtifact,
                  RunConfig, parse_set_args)
from .serve.http import add_serve_arguments, serve_from_args
from .stream import StreamError


def _load_run_config(args: argparse.Namespace,
                     artifact: PretrainArtifact | None = None) -> RunConfig:
    """Resolve the effective config: file > artifact's embedded > defaults,
    then dotted ``--set`` overrides, then explicit flags."""
    if getattr(args, "config", None):
        config = RunConfig.from_json(args.config)
    elif artifact is not None:
        config = artifact.run_config
    else:
        config = RunConfig()
    overrides = parse_set_args(getattr(args, "set", None))
    workers = getattr(args, "workers", None)
    if workers is not None:
        # Dotted --set overrides still win.
        overrides = {"pretrain.num_workers": workers, **overrides}
    trace = getattr(args, "trace", None)
    if trace is not None:
        overrides = {"obs.enabled": True, "obs.trace_path": trace,
                     **overrides}
    if overrides:
        config = config.with_overrides(overrides)
    flags = {}
    for name in ("task", "strategy", "backbone"):
        value = getattr(args, name, None)
        if value is not None:
            flags[name] = value
    if getattr(args, "inductive", False):
        flags["inductive"] = True
    if flags:
        config = config.with_updates(**flags)
    return config


def _print_metrics(metrics, out: str | None) -> None:
    row = metrics.as_row()
    for key, value in row.items():
        print(f"  {key:10s} {value}")
    if out:
        with open(out, "w") as fh:
            json.dump(row, fh, indent=2)
            fh.write("\n")
        print(f"metrics written to {out}")


# ----------------------------------------------------------------------
# pipeline subcommands
# ----------------------------------------------------------------------

def _cmd_pretrain(args: argparse.Namespace) -> int:
    config = _load_run_config(args)
    if args.dump_config:
        print(json.dumps(config.to_dict(), indent=2))
        return 0
    pipeline = Pipeline(config).pretrain(verbose=not args.quiet)
    pipeline.save(args.out)
    info = pipeline.artifact.describe()
    print(f"pre-trained {info['backbone']} on {info['dataset']} "
          f"({info['num_nodes']} nodes, {info['checkpoints']} checkpoints)")
    losses = info["final_losses"]
    print(f"final losses: L_eta={losses['L_eta']} L_eps={losses['L_eps']} "
          f"L_tlp={losses['L_tlp']}")
    print(f"artifact written to {args.out}")
    return 0


def _cmd_finetune(args: argparse.Namespace) -> int:
    artifact = PretrainArtifact.load(args.artifact)
    config = _load_run_config(args, artifact)
    pipeline = Pipeline.from_artifact(artifact, config)
    pipeline.finetune(verbose=not args.quiet)
    best = max((h.get("val_auc", float("nan")) for h in pipeline.history),
               default=float("nan"))
    print(f"fine-tuned {config.backbone} with strategy {config.strategy!r} "
          f"for {len(pipeline.history)} epoch(s); best val AUC {best:.4f}")
    # Persist the fine-tuned bundle (format v2) so a later `evaluate` or
    # `serve` reuses the trained head instead of re-fitting.
    out = args.out if args.out else args.artifact
    pipeline.save(out)
    print(f"artifact with fine-tuned head written to {out}")
    if args.out_history:
        with open(args.out_history, "w") as fh:
            json.dump(pipeline.history, fh, indent=2)
            fh.write("\n")
        print(f"history written to {args.out_history}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    artifact = None
    if args.artifact:
        artifact = PretrainArtifact.load(args.artifact)
    config = _load_run_config(args, artifact)
    if artifact is None and config.strategy != "none":
        print("evaluate needs --artifact unless --strategy none",
              file=sys.stderr)
        return 2
    pipeline = Pipeline(config, artifact=artifact)
    # A v2 artifact may carry the fine-tuned model; evaluate() loads it
    # instead of silently re-running fine-tuning (--refit forces it).
    metrics = pipeline.evaluate(refit=args.refit, verbose=not args.quiet)
    reused = (not args.refit and artifact is not None
              and artifact.finetuned is not None
              and not pipeline.train_seconds)
    source = "saved fine-tuned head" if reused else "freshly fine-tuned"
    print(f"=== {config.task} ({config.strategy}, {config.backbone}; "
          f"{source}) ===")
    _print_metrics(metrics, args.out)
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    if args.action == "report":
        if not args.trace:
            print("error: obs report needs --trace FILE", file=sys.stderr)
            return 2
        try:
            records = _obs.load_trace(args.trace)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(_obs.format_report(records))
        return 0
    print(f"error: unknown obs action {args.action!r}", file=sys.stderr)
    return 2


# ----------------------------------------------------------------------
# experiment / diagnostic subcommands (pre-existing)
# ----------------------------------------------------------------------

def _cmd_list(_: argparse.Namespace) -> int:
    from .experiments import EXPERIMENTS
    width = max(len(name) for name in EXPERIMENTS)
    for name, (_, description) in sorted(EXPERIMENTS.items()):
        print(f"{name.ljust(width)}  {description}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from .experiments import run_experiment
    try:
        result = run_experiment(args.experiment, scale=args.scale,
                                verbose=not args.quiet)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    table = result.format_table()
    print(table)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(table + "\n")
        print(f"\nwritten to {args.out}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .datasets import (LABELED_DATASETS, MEDIUM, amazon_universe,
                           gowalla_universe, labeled_stream, meituan_stream)
    from .graph import temporal_profile
    profilable = ("meituan",) + LABELED_DATASETS + (
        "amazon:beauty", "amazon:luxury", "amazon:arts",
        "gowalla:entertainment", "gowalla:outdoors", "gowalla:food")
    name = args.dataset
    if name == "meituan":
        stream = meituan_stream(MEDIUM)
    elif name in LABELED_DATASETS:
        stream = labeled_stream(name, MEDIUM)
    elif ":" in name:
        universe_name, field = name.split(":", 1)
        universe = (amazon_universe(MEDIUM) if universe_name == "amazon"
                    else gowalla_universe(MEDIUM))
        stream = universe.stream(field)
    else:
        print(f"unknown dataset {name!r}; choose from {profilable}",
              file=sys.stderr)
        return 2
    profile = temporal_profile(stream)
    print(f"=== temporal profile: {name} ===")
    for key, value in profile.as_row().items():
        print(f"  {key:14s} {value}")
    return 0


# ----------------------------------------------------------------------
# parser wiring
# ----------------------------------------------------------------------

def _add_config_options(parser: argparse.ArgumentParser,
                        with_model_flags: bool = True) -> None:
    parser.add_argument("--config", default=None, metavar="FILE",
                        help="JSON run config (RunConfig.to_json format)")
    parser.add_argument("--set", action="append", default=[], metavar="K=V",
                        help="dotted config override, e.g. pretrain.beta=0.3 "
                             "(repeatable)")
    parser.add_argument("--quiet", action="store_true")
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="pre-training batch-producer processes: N "
                             "forked children that sample ahead of the "
                             "step (0 = one; in process on one usable "
                             "core; overrides pretrain.num_workers); "
                             "fine-tuning always produces in process")
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="enable span tracing and append JSONL span "
                             "records to FILE (sets obs.enabled and "
                             "obs.trace_path)")
    parser.add_argument("--metrics", action="store_true",
                        help="print the process metrics registry "
                             "(Prometheus text) after the command finishes")
    if with_model_flags:
        parser.add_argument("--task", default=None,
                            help="link_prediction | node_classification")
        parser.add_argument("--strategy", default=None,
                            help="none | full | eie-mean | eie-attn | eie-gru")
        parser.add_argument("--backbone", default=None,
                            help="tgn | jodie | dyrep")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="CPDG reproduction command line")
    sub = parser.add_subparsers(dest="command", required=True)

    pre = sub.add_parser(
        "pretrain", help="CPDG pre-training; writes a reusable artifact")
    _add_config_options(pre)
    pre.add_argument("--out", default="pretrain_artifact.npz", metavar="FILE",
                     help="artifact path (default: %(default)s)")
    pre.add_argument("--dump-config", action="store_true",
                     help="print the effective config as JSON and exit")

    fin = sub.add_parser(
        "finetune", help="fine-tune downstream from a saved artifact")
    _add_config_options(fin)
    fin.add_argument("--artifact", required=True, metavar="FILE")
    fin.add_argument("--out", default=None, metavar="FILE",
                     help="where to write the artifact with the "
                          "fine-tuned head (default: update --artifact "
                          "in place)")
    fin.add_argument("--out-history", default=None, metavar="FILE",
                     help="write per-epoch fine-tuning history as JSON")

    ev = sub.add_parser(
        "evaluate", help="fine-tune + score the test segment from an artifact")
    _add_config_options(ev)
    ev.add_argument("--artifact", default=None, metavar="FILE",
                    help="saved artifact (omit only with --strategy none)")
    ev.add_argument("--inductive", action="store_true",
                    help="restrict scoring to unseen-node events (Table X)")
    ev.add_argument("--out", default=None, metavar="FILE",
                    help="write metrics as JSON")
    ev.add_argument("--refit", action="store_true",
                    help="re-run fine-tuning even when the artifact "
                         "carries a saved fine-tuned head")

    srv = sub.add_parser(
        "serve", help="serve embedding / link-score queries over HTTP "
                      "from a saved artifact")
    add_serve_arguments(srv)

    sub.add_parser("list", help="list registered experiments")

    run_parser = sub.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment")
    run_parser.add_argument("--scale", default="tiny",
                            choices=("tiny", "default", "full"))
    run_parser.add_argument("--out", default=None,
                            help="also write the table to this file")
    run_parser.add_argument("--quiet", action="store_true")

    profile_parser = sub.add_parser("profile",
                                    help="print a dataset's temporal profile")
    profile_parser.add_argument("dataset")

    obs_parser = sub.add_parser(
        "obs", help="observability tools (per-stage latency report from "
                    "a trace log)")
    obs_parser.add_argument("action", choices=("report",),
                            help="report: aggregate a JSONL trace log "
                                 "into a per-span latency table")
    obs_parser.add_argument("--trace", metavar="FILE", required=False,
                            help="trace log written by --trace / "
                                 "obs.trace_path")

    args = parser.parse_args(argv)
    handlers = {"pretrain": _cmd_pretrain, "finetune": _cmd_finetune,
                "evaluate": _cmd_evaluate, "serve": serve_from_args,
                "obs": _cmd_obs,
                "list": _cmd_list, "run": _cmd_run, "profile": _cmd_profile}
    try:
        code = handlers[args.command](args)
        if getattr(args, "metrics", False):
            print(_obs.render_prometheus(), end="")
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed the pipe (`repro obs report ... | head`).
        # Point stdout at devnull so the flush at exit cannot raise again
        # (the idiom of the note on SIGPIPE in the `signal` module docs).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ConfigError, ArtifactError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StreamError as exc:
        # Producer trouble (a forked producer child that died or raised):
        # one actionable line, not a traceback.
        print(f"error: {exc}", file=sys.stderr)
        print("hint: re-run with --workers 0 (or --set "
              "pretrain.num_workers=0) for a single producer child",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
