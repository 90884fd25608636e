"""Input generators.  Every file utk reads during a benchmark run is written
here, from the workload's seed, into a fresh directory of the run.

The seed varies what must not change the work: the children's hash seed,
directory names, the binder name in the nested chain and the order in which
definitions are normalized.  The amount of work is fixed per workload, so
verdicts and the kernel's work counts repeat across seeds; the model's DM
call count moves slightly with the hash seed (WORKLOADS.md).
"""

from __future__ import annotations

import json
import random
import shutil
from pathlib import Path

NEST_DEPTH = 1000
NEST_NAMES = ("nest_id", "nest_chain")
EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())
_BINDERS = "abcdefghklmnoqrstuvwz"


def hash_seed(seed: int) -> str:
    """PYTHONHASHSEED for the children: the seed folded into 0..2**32-1."""
    return str(seed % 2**32)


def manifest(corpus: Path) -> list:
    lines = (corpus / "MANIFEST").read_text().splitlines()
    return [line.strip() for line in lines if line.strip() and not line.strip().startswith("--")]


def copy_corpus(src: Path, dst: Path) -> list:
    """Copy the shipped corpus to `dst`.  Returns the source files in
    MANIFEST order."""
    dst.mkdir(parents=True)
    files = manifest(src)
    for name in files + ["MANIFEST", "OPAQUE", "THEOREMS.tsv"]:
        shutil.copyfile(src / name, dst / name)
    return [str(dst / name) for name in files]


def nest_source(depth: int, binder: str = "x") -> str:
    """`nest_chain : U1` as `depth` nested applications of an identity on U1
    to U0.  Checking it re-infers every argument, so cost grows with depth."""
    ident, chain = NEST_NAMES
    term = "U0"
    for _ in range(depth):
        term = f"{ident} ({term})"
    return f"def {ident} : U1 -> U1 := \\{binder} -> {binder}\ndef {chain} : U1 := {term}\n"


def generate(workload: str, seed: int, root: Path, work: Path) -> dict:
    """Write the workload's inputs under `work` and return the run spec the
    children read."""
    rng = random.Random(seed)
    shipped = root / "src" / "utk" / "corpus"
    tag = f"{rng.getrandbits(32):08x}"
    spec = {"workload": workload, "seed": seed, "root": str(root), "work": str(work)}
    if workload not in ("corpus", "kernel-stress", "normalize", "model-dim2"):
        raise ValueError(f"unknown workload {workload!r}")
    # the shipped corpus: the input of every workload but model-dim2, and the
    # operands of the kernel microbenchmarks in every traced run
    files = copy_corpus(shipped, work / f"corpus-{tag}")
    spec["corpus_dir"] = str(work / f"corpus-{tag}")
    if workload == "kernel-stress":
        # `utk check` reads no OPAQUE file: every definition stays transparent
        nest = work / f"nest-{tag}.tt"
        nest.write_text(nest_source(NEST_DEPTH, rng.choice(_BINDERS)))
        spec["files"] = files + [str(nest)]
    elif workload == "normalize":
        order = list(EXPECTED["definitions"])
        rng.shuffle(order)
        spec["order"] = order
    (work / "spec.json").write_text(json.dumps(spec, indent=1))
    return spec


def model_subset() -> list:
    """The first check of each self-test family, in self-test order: the
    checks an untraced model-dim2 pass runs.  The whole self-test takes
    about 50 s, too long to repeat within one run."""
    first = {}
    for name in EXPECTED["model_checks"]:
        first.setdefault(name.split("/")[0], name)
    return list(first.values())


def expected_items(workload: str, traced: bool = False) -> list:
    """The item names a pass must report, all with an ok verdict.  A traced
    model-dim2 pass runs every self-test check, an untraced one the subset."""
    if workload == "corpus":
        return EXPECTED["declarations"] + EXPECTED["theorem_rows"]
    if workload == "kernel-stress":
        return EXPECTED["declarations"] + list(NEST_NAMES)
    if workload == "normalize":
        return list(EXPECTED["definitions"])
    return list(EXPECTED["model_checks"]) if traced else model_subset()
