"""Byte and cost identity across runs of one checkout.

Every run records the SHA-256 of its final storage image (and, when
traced, ``primitives.calls_per_op``) under ``perfbench/out/identity``,
keyed by workload, seed and ``--seconds``.  A later run with the same
key must reproduce both exactly, and ``point_mix`` and
``point_mix_monitored`` — the same op stream with and without the
observability layer — must leave identical images, because observing
must not change a stored byte.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

#: Workloads that replay one op stream and must store identical bytes.
SAME_BYTES = ("point_mix", "point_mix_monitored")


def _path(directory: Path, workload: str, seed: int, seconds: int) -> Path:
    return directory / f"{workload}-seed{seed}-s{seconds}.json"


def _load(path: Path) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def check_and_record(
    directory: Path, workload: str, seed: int, seconds: int, facts: dict
) -> list[str]:
    """Compare ``facts`` with what earlier runs recorded; record the union.

    Returns one message per disagreement (empty when all agree).
    """
    directory.mkdir(parents=True, exist_ok=True)
    path = _path(directory, workload, seed, seconds)
    recorded = _load(path)
    problems = [
        f"{workload} seed {seed}: {key} is {value!r}, an earlier run recorded "
        f"{recorded[key]!r}"
        for key, value in facts.items()
        if key in recorded and recorded[key] != value
    ]
    if workload in SAME_BYTES:
        for sibling in SAME_BYTES:
            other = _load(_path(directory, sibling, seed, seconds))
            image = other.get("image_sha256")
            if sibling != workload and image and image != facts["image_sha256"]:
                problems.append(
                    f"seed {seed}: {workload} stored image differs from "
                    f"{sibling}'s — observing changed a stored byte"
                )
    if not problems:
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump({**recorded, **facts}, handle, sort_keys=True)
        os.replace(tmp, path)
    return problems
