"""Freeze the pinned games, the slow-flip instances and the references of
every seed-independent game.

    python3 perfbench/make_fixtures.py

The pinned games and slow-flip instances are written from the library's own
generators (`random_smpg`, `random_entropy_game`, `build_cex_game`), so the
fixtures record the draws of the commit they were made at.  The defect games
are redrawn from their seed and draw number.  References are
computed by brute force (`refs.py`).  Re-running this is only needed when a
workload's fixed games change; `selfcheck.py` verifies the frozen files.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import mpgames  # noqa: E402

import refs  # noqa: E402
import workloads as wl  # noqa: E402


def library_fixtures() -> dict:
    """The pinned and slow-flip games, drawn by the library."""
    out = {}
    rng = random.Random(1)
    draws = [mpgames.random_smpg(rng, 5, 5, 5) for _ in range(wl.R1_555_DRAWS)]
    out[wl.PINNED_SMPG] = mpgames.game_to_json(
        draws[int(wl.PINNED_SMPG.rsplit("-", 1)[1])])
    for gid in wl.PINNED_ENTROPY:
        n = int(gid.split("-")[1][0])
        rng = random.Random(2)
        draws = [mpgames.random_entropy_game(rng, n, n, n)
                 for _ in range(wl.ENTROPY_DRAWS)]
        out[gid] = mpgames.entropy_to_json(draws[int(gid.rsplit("-", 1)[1])])
    for n, w in wl.CEX_TIMED + wl.CEX_SLOW:
        out[f"cex-{n}-{w}"] = mpgames.entropy_to_json(
            mpgames.build_cex_game(n, w).game)
    for gid in wl.DEFECT_GAMES:
        seed, k = map(int, gid[len("defect-e"):].split("-"))
        rng = random.Random(seed)
        draws = [mpgames.random_entropy_game(rng) for _ in range(k + 1)]
        out[gid] = mpgames.entropy_to_json(draws[k])
    return out


def main():
    wl.FIXTURES.mkdir(exist_ok=True)
    for gid, obj in library_fixtures().items():
        with open(wl.FIXTURES / f"{gid}.json", "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=1)
            fh.write("\n")
    frozen = {}
    for gid, obj in sorted(wl.fixed_games().items()):
        if obj["type"] == "smpg":
            ref = refs.smpg_reference(obj)
        else:
            ref = refs.entropy_reference(obj)
        frozen[gid] = {"sha256": wl.game_hash(obj), "ref": ref}
        print(gid, json.dumps(ref)[:100], flush=True)
    with open(wl.FIXTURES / "references.json", "w", encoding="utf-8") as fh:
        json.dump(frozen, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
