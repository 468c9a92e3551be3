"""One iteration of a workload in a fresh interpreter, started by run.py.

    python3 perfbench/child.py <src>              # print the import time only
    python3 perfbench/child.py <src> <plan.json>  # run the plan's invocations once

It first imports ``multippi.cli`` from ``<src>`` and times that import, before
anything else is loaded: this is the set-up time a user pays. With a plan, each
invocation then goes through ``multippi.cli.main(argv)`` in this process; its
wall and CPU time, exit code and the SHA-256 of every artifact it wrote are
recorded. An invocation always writes to the same output directory (artifacts
embed the run configuration, output path included), which is emptied before
and archived after each call, outside the timed region. The result, with the
import time, library versions and peak resident memory of this process, goes
to the plan's result path; spans, when traced, to the plan's spans path.
"""

import sys
import time


def import_cli(src: str):
    """Import multippi.cli from ``src``; return it and the seconds the import took."""
    sys.path.insert(0, src)
    start = time.perf_counter()
    from multippi import cli
    return cli, time.perf_counter() - start


def main(argv: list[str]) -> int:
    cli, import_s = import_cli(argv[0])
    if len(argv) == 1:
        print(import_s)
        return 0
    # Imported only now so that the timed import above starts from a bare interpreter.
    import hashlib
    import json
    import resource
    import shutil
    import traceback
    from pathlib import Path

    import multippi
    src = Path(argv[0]).resolve()
    if not Path(multippi.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"multippi imported from {multippi.__file__}, not {src}")

    def hash_tree(directory: Path) -> dict[str, str]:
        return {str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(directory.rglob("*")) if p.is_file()}

    def blas_version(module) -> str:
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except Exception:  # show_config's layout differs across releases
            return "unknown"

    plan = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    tracer = None
    if plan["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    records = []
    for inv in plan["invocations"]:
        out = Path(plan["out"]) / inv["label"]
        archive = Path(plan["archive"]) / f"{plan['iteration']:03d}" / inv["label"]
        shutil.rmtree(out, ignore_errors=True)
        argv_i = [a.format(out=out, seed=plan["cli_seed"]) for a in inv["argv"]]
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            rc = cli.main(argv_i)
        except Exception:  # a crash is one failed invocation, not a dead run
            traceback.print_exc()
            rc = "exception"
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        hashes = {}
        if out.is_dir():
            hashes = hash_tree(out)
            shutil.copytree(out, archive)
        records.append({"iteration": plan["iteration"], "label": inv["label"], "argv": argv_i,
                        "out": str(archive), "rc": rc, "wall_s": wall, "cpu_s": cpu,
                        "start": wall0, "hashes": hashes})
    import numpy
    import scipy
    result = {"invocations": records, "import_s": import_s,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__,
                           "numpy_blas": blas_version(numpy),
                           "scipy_blas": blas_version(scipy)}}
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(plan["spans"])
        result["targets"] = tracer.targets
        result["absent_layers"] = tracer.absent_layers
    Path(plan["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
