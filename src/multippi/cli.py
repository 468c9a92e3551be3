"""Command-line entry point: ingest -> predict -> infer -> loso -> simulate.

Every artifact embeds the run configuration, the tool version, and the
master seed; rerunning a subcommand with an identical configuration
produces byte-identical files. All randomness derives from --seed.
Exit codes: 0 success, 1 data/processing error, 2 usage error; errors and
warnings go to stderr as one JSON record each.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__, experiment, ingest, simulate, textpred
from .errors import MultippiError, ParameterError, SchemaError
from .ingest import CAUSE_CLASSES, CodClass

EXIT_OK, EXIT_DATA_ERROR, EXIT_USAGE = 0, 1, 2


def _run_config(args: argparse.Namespace) -> dict:
    skip = {"func"}
    config = {k: v for k, v in sorted(vars(args).items()) if k not in skip}
    config["tool"] = "multippi"
    config["version"] = __version__
    return config


def _json_artifact(config: dict, payload: dict) -> str:
    doc = {"run_config": config, **payload}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _write_csv(path: Path, config: dict, rows: list, header: list[str] | None = None) -> None:
    """The three comment lines, then ``rows``: dicts sharing the first one's
    keys, or value sequences under ``header``."""
    if header is None and rows:
        header, rows = list(rows[0]), [list(row.values()) for row in rows]
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as handle:
        handle.write(f"# tool: multippi {__version__}\n")
        handle.write(f"# master_seed: {config.get('seed')}\n")
        handle.write("# run_config: " + json.dumps(config, sort_keys=True) + "\n")
        if rows:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(rows)


_CONFIG_DEFAULTS = {
    "split": ("split", str, "full-random"),
    "labeled_fraction": ("labeled_fraction", float, 0.2),
    "seed": ("seed", int, 0),
    "lambda": ("lam", str, "tuned"),
    "alpha": ("alpha", float, 0.05),
}


def _resolve_columns(spec: str) -> tuple[ingest.ColumnMap, dict]:
    """--columns accepts inline role=column pairs or a file of role and default keys."""
    if "=" in spec:
        return ingest.ColumnMap.from_string(spec), {}
    entries = ingest.parse_config_file(spec)
    extras = {k: v for k, v in entries.items()
              if k not in ("id", "site", "age", "narrative", "cause")}
    unknown = sorted(set(extras) - set(_CONFIG_DEFAULTS))
    if unknown:
        raise SchemaError(f"{spec}: unknown key(s) {unknown}; keys are the roles id, site, "
                          f"age, narrative, cause and the defaults {list(_CONFIG_DEFAULTS)}")
    return ingest.column_map_from_config(entries), extras


def _load(args, narratives: bool = True) -> ingest.LoadResult:
    """The --input records; with ``narratives=False`` their narratives are not read."""
    column_map, _ = _resolve_columns(args.columns)
    return ingest.load_records(args.input, column_map, delimiter=args.delimiter,
                               narratives=narratives)


def _apply_config_defaults(args) -> None:
    """Fill split/estimator options left unset: flag wins, then the columns
    config file's key=value extras, then the built-in default."""
    extras = {}
    if getattr(args, "columns", None) and "=" not in args.columns:
        _, extras = _resolve_columns(args.columns)
    for key, (attr, cast, default) in _CONFIG_DEFAULTS.items():
        if hasattr(args, attr) and getattr(args, attr) is None:
            raw = extras.get(key)
            try:
                value = cast(raw) if raw is not None else default
            except ValueError as exc:
                raise ParameterError(
                    f"{key} in {args.columns} must be {cast.__name__}, got {raw!r}") from exc
            setattr(args, attr, value)


def _floats(text: str, what: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise ParameterError(f"{what} must be comma-separated numbers, got {text!r}") from exc


def _parse_lambda(text: str) -> float | str:
    if text == "tuned":
        return "tuned"
    try:
        return float(text)
    except ValueError as exc:
        raise ParameterError(f"--lambda must be 'tuned' or a number, got {text!r}") from exc


def _reference_class(name: str) -> CodClass:
    for c in CAUSE_CLASSES:
        if c.value == name:
            return c
    raise ParameterError(
        f"unknown reference class {name!r}; choose from "
        f"{[c.value for c in CAUSE_CLASSES]}")


def _inference_spec(args) -> experiment.InferenceSpec:
    return experiment.InferenceSpec(
        labeled_fraction=args.labeled_fraction, split_strategy=args.split,
        alpha=args.alpha, lambda_mode=_parse_lambda(args.lam),
        reference_class=_reference_class(args.reference_class), seed=args.seed)


def _predictor_spec(args) -> experiment.PredictorSpec:
    kind = args.predictor
    external_path = None
    if kind.startswith("external:"):
        kind, _, external_path = kind.partition(":")
    return experiment.PredictorSpec(
        kind=kind, nb_alpha=args.nb_alpha, knn_k=args.knn_k, svm_c=args.svm_c,
        svm_epochs=args.svm_epochs, svm_seed=args.seed, min_count=args.min_count,
        external_path=external_path, unclassified_policy=args.unclassified_policy)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_ingest(args, config: dict) -> int:
    result = _load(args)
    table = result.records
    out = Path(args.out)
    _write_text(out / "ingest.json", _json_artifact(config, {"summary": result.summary()}))
    _write_csv(out / "records.csv", config,
               list(zip(table.ids, table.sites, table.ages.tolist(), table.narratives,
                        ingest.VALUE_OF_CODE[table.causes])),
               header=["record_id", "site", "age", "narrative", "cause"])
    print(f"ingested {len(table)} records "
          f"({result.n_filtered_age} under-age filtered, "
          f"{len(result.row_errors)} row errors)", file=sys.stderr)
    return EXIT_OK


def cmd_predict(args, config: dict) -> int:
    spec = _predictor_spec(args)          # a bad setting fails before any loading
    table = _load(args, narratives=spec.kind != "external").records
    out = Path(args.out)
    if spec.kind == "external":
        predictions = textpred.load_external_predictions(
            spec.external_path, spec.unclassified_policy, table)
        model = None
    else:
        train = table
        if args.train:
            train_map, _ = _resolve_columns(args.columns)
            train = ingest.load_records(args.train, train_map, delimiter=args.delimiter).records
        corpus = textpred.tokenize_corpus(train.narratives.tolist())
        model = experiment.train_predictor(corpus, train.causes, spec)
        if train is not table:
            corpus = textpred.tokenize_corpus(table.narratives.tolist())
        predictions = textpred.predict_all(model, corpus)
    _write_csv(out / "predictions.csv", config, predictions.to_rows(table.ids),
               header=["record_id", "predicted_label"])
    if model is not None:
        _write_text(out / "model.json",
                    _json_artifact(config, {"model": textpred.model_to_dict(model)}))
    payload: dict = {"provenance": predictions.provenance,
                     "class_counts": predictions.class_counts(),
                     "dropped": list(predictions.dropped),
                     "imputed": list(predictions.imputed)}
    scored = (table.causes != ingest.NO_CAUSE) & (predictions.codes != ingest.NO_CAUSE)
    if scored.any():
        cm = experiment.confusion_matrix(table.causes[scored], predictions.codes[scored])
        payload["confusion"] = cm.to_dict()
        payload["accuracy"] = experiment.accuracy(cm)
        payload["macro_f1"] = experiment.macro_f1(cm)
        _write_csv(out / "confusion.csv", config, cm.csv_rows())
    _write_text(out / "metrics.json", _json_artifact(config, payload))
    return EXIT_OK


def cmd_infer(args, config: dict) -> int:
    inference = _inference_spec(args)     # a bad option fails before any loading or fitting
    table = _load(args, narratives=False).records
    labeled = table.causes != ingest.NO_CAUSE
    if not labeled.all():
        table = table.take(np.flatnonzero(labeled))
    if not len(table):
        raise ParameterError("infer needs records with true causes (bind a cause column)")
    predictions = textpred.load_external_predictions(args.predictions,
                                                     args.unclassified_policy, table)
    predicted = predictions.codes != ingest.NO_CAUSE
    usable = table if predicted.all() else table.take(np.flatnonzero(predicted))
    data_split, _, reports = experiment.fit_reports(usable, predictions.codes[predicted],
                                                    inference, inference.seed)
    for report in reports.values():
        if isinstance(report, MultippiError):
            raise report
    out = Path(args.out)
    combined = []
    for tag, report in reports.items():
        _write_text(out / f"report_{tag}.json",
                    _json_artifact(config, {"split": data_split.to_dict(),
                                            "report": report.to_dict()}))
        combined.extend(report.csv_rows())
    _write_csv(out / "coefficients.csv", config, combined)
    return EXIT_OK


def cmd_loso(args, config: dict) -> int:
    spec = _predictor_spec(args)          # bad settings fail before any loading
    inference = _inference_spec(args)
    result = _load(args, narratives=spec.kind != "external")
    # the sites and their file names are checked before any site trains
    sites = experiment.loso_sites(result.records, args.sites.split(",") if args.sites else None)
    site_of = {}                          # file-name form -> site
    for site in sites:
        safe = site.replace("/", "_").replace(" ", "_").lower()
        if site_of.setdefault(safe, site) != site:
            raise SchemaError(f"sites {site_of[safe]!r} and {site!r} would both "
                              f"write site_{safe}.json")
    threads = (os.cpu_count() or 1) if args.threads is None else args.threads
    reports = experiment.run_loso(result.records, spec, inference, sites=sites, threads=threads)
    out = Path(args.out)
    combined = []
    for safe, site_report in zip(site_of, reports):
        _write_text(out / f"site_{safe}.json",
                    _json_artifact(config, {"site_report": site_report.to_dict()}))
        if site_report.confusion is not None:
            _write_csv(out / f"confusion_{safe}.csv", config,
                       site_report.confusion.csv_rows())
        combined.extend(site_report.combined_csv_rows())
        line = f"site {site_report.site}: "
        if site_report.accuracy is not None:
            line += f"accuracy {site_report.accuracy:.3f}, macro-F1 {site_report.macro_f1:.3f}"
        if site_report.errors:
            line += f" errors: {sorted(site_report.errors)}"
        print(line, file=sys.stderr)
    _write_csv(out / "coefficients.csv", config, combined)
    return EXIT_OK


def cmd_simulate(args, config: dict) -> int:
    k, d = args.classes, args.features
    if args.n < 1 or args.unlabeled < 1:
        raise ParameterError("--n and --unlabeled must each be at least 1")
    if args.theta:
        theta_star = np.asarray(_floats(args.theta, "--theta"))
        if theta_star.size != d * (k - 1):
            raise ParameterError(f"--theta needs --features x (--classes - 1) = {d * (k - 1)} "
                                 f"values, got {theta_star.size}")
    elif (k, d) == (3, 2):
        theta_star = simulate.DEFAULT_THETA_STAR.copy()
    else:
        raise ParameterError("--theta is required unless --classes 3 --features 2")
    spec = simulate.SyntheticSpec(theta_star=theta_star, n_labeled=args.n,
                                  n_unlabeled=args.unlabeled, n_classes=k,
                                  n_features=d, seed=args.seed)
    if args.noise == "identity":
        noise = simulate.NoiseModel.identity(k)
    elif args.noise == "uniform":
        noise = simulate.NoiseModel.uniform(k)
    elif args.noise == "asymmetric":
        if k != 3:
            raise ParameterError("--noise asymmetric is defined for --classes 3; for other "
                                 "sizes give --noise <path to a KxK matrix CSV>")
        noise = simulate.ASYMMETRIC_3CLASS
    else:
        rows = [_floats(line, "--noise matrix rows")
                for line in ingest._read_utf8(Path(args.noise), ParameterError).strip().splitlines()
                if line.strip() and not line.startswith("#")]
        if len({len(row) for row in rows}) > 1:
            raise ParameterError("--noise matrix rows differ in length")
        if len(rows) != k or any(len(row) != k for row in rows):
            raise ParameterError(f"--noise matrix must be {k}x{k} for --classes {k}, "
                                 f"got {len(rows)} row(s) of {len(rows[0]) if rows else 0}")
        noise = simulate.NoiseModel(np.asarray(rows))
    report = simulate.coverage_experiment(spec, noise, args.reps, alpha=args.alpha,
                                          lambda_mode=_parse_lambda(args.lam),
                                          keep_replications=args.dump_reps)
    out = Path(args.out)
    _write_text(out / "coverage.json", _json_artifact(config, {"coverage": report.to_dict()}))
    _write_csv(out / "coverage.csv", config, report.csv_rows())
    if args.dump_reps:
        rows = [{"rep": r["rep"], "lambda": r["lambda"],
                 **{f"{tag}_theta": json.dumps(r[f"{tag}_theta"]) for tag in simulate.ESTIMATORS},
                 **{f"{tag}_width": json.dumps(r[f"{tag}_width"]) for tag in simulate.ESTIMATORS}}
                for r in report.replication_rows]
        _write_csv(out / "replications.csv", config, rows)
    for tag in simulate.ESTIMATORS:
        print(f"{tag}: coverage {np.round(report.coverage[tag], 3).tolist()}",
              file=sys.stderr)
    print(f"lambda mean {report.lambda_mean:.3f} (raw {report.lambda_raw_mean:.3f}); "
          f"failures {report.failures}/{report.replications}", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser wiring


def _add_io_flags(p):
    p.add_argument("--input", required=True, help="input CSV path")
    p.add_argument("--columns", required=True,
                   help="role=column pairs or a key=value config file")
    p.add_argument("--delimiter", default=",")
    p.add_argument("--out", required=True, help="output directory")


def _add_common_flags(p):
    p.add_argument("--seed", type=int, default=None, help="master seed (default 0)")
    p.add_argument("--threads", type=int, default=None,
                   help="worker threads for the loso site pool (default: the CPU count; "
                        "other commands run on one)")


def _add_predictor_flags(p):
    p.add_argument("--predictor", required=True,
                   help="nb | knn | svm | external:<predictions.csv>")
    p.add_argument("--nb-alpha", type=float, default=1.0)
    p.add_argument("--knn-k", type=int, default=9)
    p.add_argument("--svm-c", type=float, default=1.0)
    p.add_argument("--svm-epochs", type=int, default=60)
    p.add_argument("--min-count", type=int, default=1)
    p.add_argument("--unclassified-policy", default="drop",
                   choices=textpred.UNCLASSIFIED_POLICIES)


def _add_inference_flags(p):
    p.add_argument("--split", default=None,
                   choices=["full-random", "stratified-by-cause"])
    p.add_argument("--labeled-fraction", type=float, default=None,
                   help="default 0.2")
    p.add_argument("--lambda", dest="lam", default=None,
                   help="'tuned' (default) or a fixed value in [0, 1]")
    p.add_argument("--alpha", type=float, default=None, help="default 0.05")
    p.add_argument("--reference-class", default=CodClass.NON_COMMUNICABLE.value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multippi",
        description="Prediction-powered inference for cause-of-death regression")
    parser.add_argument("--version", action="version", version=f"multippi {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="load, map causes, and summarize a CSV")
    _add_io_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("predict", help="train a predictor and write predictions")
    _add_io_flags(p)
    p.add_argument("--train", default=None,
                   help="training CSV (defaults to --input)")
    _add_predictor_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("infer", help="ground-truth/classical/naive/multippi reports")
    _add_io_flags(p)
    p.add_argument("--predictions", required=True,
                   help="CSV of (record_id, predicted_label)")
    p.add_argument("--unclassified-policy", default="drop",
                   choices=textpred.UNCLASSIFIED_POLICIES)
    _add_inference_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("loso", help="leave-one-site-out experiment")
    _add_io_flags(p)
    p.add_argument("--sites", default=None, help="comma-separated site filter")
    _add_predictor_flags(p)
    _add_inference_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_loso)

    p = sub.add_parser("simulate", help="Monte Carlo coverage experiment")
    p.add_argument("--out", required=True)
    p.add_argument("--reps", type=int, default=1000)
    p.add_argument("--noise", default="asymmetric",
                   help="identity | uniform | asymmetric | path to a matrix CSV")
    p.add_argument("--n", type=int, default=200, help="labeled rows per replication")
    p.add_argument("--unlabeled", type=int, default=800)
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--features", type=int, default=2)
    p.add_argument("--theta", default=None, help="comma-separated generating coefficients")
    p.add_argument("--lambda", dest="lam", default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--dump-reps", action="store_true",
                   help="also write per-replication estimates")
    _add_common_flags(p)
    p.set_defaults(func=cmd_simulate)
    return parser


def _print_record(**record) -> None:
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    _print_record(message=str(message), warning=category.__name__)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            _apply_config_defaults(args)
            return args.func(args, _run_config(args))
        except (MultippiError, OSError) as exc:
            _print_record(error=type(exc).__name__, message=str(exc))
            return EXIT_USAGE if isinstance(exc, ParameterError) else EXIT_DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
