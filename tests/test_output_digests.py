"""tools/output_digests.py is the byte-identity check between two checkouts,
so its own output must be a function of the code alone: one line per
``bench.corpus`` request or parser text, the same under any string hash
seed."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _start(hash_seed: str, workloads: str = "cli,exact") -> subprocess.Popen:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.Popen([sys.executable, str(ROOT / "tools" / "output_digests.py"),
                             "--workloads", workloads, "--seeds", "1"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env)


def test_digests_cover_the_corpus_and_ignore_the_hash_seed():
    runs = [_start(seed) for seed in ("0", "4242")]
    outs = []
    for p in runs:
        out, err = p.communicate(timeout=300)
        assert p.returncode == 0, err[-2000:]
        outs.append(out)
    sys.path.insert(0, str(ROOT))
    try:
        from bench import corpus
    finally:
        sys.path.remove(str(ROOT))
    ids = [f"{w}/1/{req['id']}" for w in ("cli", "exact")
           for req in corpus.requests(w, 1, "out")]
    rows = [line.split(" ") for line in outs[0].splitlines()]
    assert [row[0] for row in rows] == ids
    assert all(len(row) == 2 and re.fullmatch(r"[0-9a-f]{64}", row[1]) for row in rows)
    assert outs[0] == outs[1]


def test_parse_digests_cover_every_text_and_ignore_the_hash_seed():
    runs = [_start(seed, "parse") for seed in ("0", "4242")]
    outs = []
    for p in runs:
        out, err = p.communicate(timeout=300)
        assert p.returncode == 0, err[-2000:]
        outs.append(out)
    rows = [line.split(" ") for line in outs[0].splitlines()]
    assert [row[0] for row in rows] == [f"parse/{i}" for i in range(len(rows))]
    assert len(rows) > 30000 and len({row[1] for row in rows}) > len(rows) // 5
    assert all(len(row) == 2 and re.fullmatch(r"[0-9a-f]{64}", row[1]) for row in rows)
    assert outs[0] == outs[1]
