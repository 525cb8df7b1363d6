#!/usr/bin/env python3
"""Write the byte set, or compare two written byte sets.

The byte set is every file and output line whose bytes a change that keeps
the drivers' decisions must leave alone:

- the standard config set and the 7-layer cases (scripts/golden_decisions.py
  defines both): each case's `gen` model, manifest, data and output line,
  and each of its 12 runs' pruned model, report and `prune` line;
- the output of `convprune verify --suite all`;
- for every workload in perfbench/workloads.py, its seed-0 models and
  dataset, and each of its jobs' pruned model, report and `prune` line.

Every command runs in this process through `convprune.cli.main`, from
inside DIR with relative paths, so the printed lines compare too.  Each
command's record (a `.txt` file) holds its command line, its stdout and
stderr, and its exit code.  DIR/SHA256SUMS lists every file, in the format
of `sha256sum` (check it with `cd DIR && sha256sum -c SHA256SUMS`).

    python3 scripts/byte_set.py --out DIR
    python3 scripts/byte_set.py --compare A B   # exit 1 if any file differs

convprune is imported from this checkout's `src`, and BLAS runs with the
threads the environment sets.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

import golden_decisions as golden

ROOT = Path(__file__).resolve().parents[1]
SUMS = "SHA256SUMS"
PERFBENCH_SEED = 0


def _run(cli, argv: list[str], record: Path) -> None:
    """Run one command and write its record."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    record.write_text(
        f"$ convprune {' '.join(argv)}\n{out.getvalue()}{err.getvalue()}exit {code}\n",
        encoding="utf-8",
    )


def write_byte_set(out: Path) -> int:
    """Write the byte set into out, which must not exist or be empty;
    return the number of files written, SHA256SUMS not counted."""
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        raise SystemExit(f"byte_set: {out} is not empty")
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    workloads.import_convprune()
    from convprune import cli

    os.chdir(out)
    for case, (gen, _, _) in golden.CASES.items():
        Path(case).mkdir()
        _run(cli, ["gen", *gen, "--out-model", f"{case}/model.json",
                   "--out-data", f"{case}/data.pkt"], Path(case, "gen.txt"))
    for case, selector, method, prune in golden.runs():
        stem = f"{case}/{selector}_{method}"
        _run(cli, ["prune", "--model", f"{case}/model.json", "--data", f"{case}/data.pkt",
                   "--selector", selector, "--method", method, *prune,
                   "--out", f"{stem}.json", "--report", f"{stem}.report.json"],
             Path(f"{stem}.txt"))
    _run(cli, ["verify", "--suite", "all"], Path("verify.txt"))
    for name, workload in workloads.WORKLOADS.items():
        inputs = Path("perfbench", name)
        workloads.build_inputs(workload, PERFBENCH_SEED, inputs)
        for index, job in enumerate(workload.jobs):
            stem = inputs / str(index)
            argv = job.argv(inputs, Path(f"{stem}.json"), Path(f"{stem}.report.json"))
            _run(cli, argv, Path(f"{stem}.txt"))

    files = _files(Path("."))
    with open(SUMS, "w", encoding="utf-8", newline="\n") as fh:
        for rel in files:
            fh.write(f"{hashlib.sha256(Path(rel).read_bytes()).hexdigest()}  {rel}\n")
    return len(files)


def _files(top: Path) -> list[str]:
    """Every file under top as a sorted relative POSIX path, SHA256SUMS left out."""
    return sorted(
        p.relative_to(top).as_posix()
        for p in top.rglob("*")
        if p.is_file() and p.relative_to(top).as_posix() != SUMS
    )


def compare(a: Path, b: Path) -> tuple[list[str], int]:
    """The files of a and b that differ or exist in only one, each with why,
    and the number of files in either."""
    in_a, in_b = set(_files(a)), set(_files(b))
    differ = []
    for rel in sorted(in_a | in_b):
        if rel not in in_b:
            differ.append(f"{rel}: only in {a}")
        elif rel not in in_a:
            differ.append(f"{rel}: only in {b}")
        elif (a / rel).read_bytes() != (b / rel).read_bytes():
            differ.append(f"{rel}: differs")
    return differ, len(in_a | in_b)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", type=Path, help="write the byte set into this new directory")
    mode.add_argument("--compare", type=Path, nargs=2, metavar=("A", "B"),
                      help="list the files that differ between two byte sets")
    args = p.parse_args(argv)
    if args.out is not None:
        count = write_byte_set(args.out.resolve())
        print(f"byte_set: {count} files -> {args.out}/{SUMS}")
        return 0
    a, b = args.compare
    for top in (a, b):
        if not top.is_dir():
            raise SystemExit(f"byte_set: {top} is not a directory")
    differ, total = compare(a, b)
    for line in differ:
        print(line)
    print(f"byte_set: {len(differ)} of {total} files differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
