"""Byte-identity golden record of ``msn tower build`` and ``msn tower verify``.

``tower_golden.json`` holds, for each seed below, the sha256 of every
artifact file that ``tower build`` writes (catalog: the lines of scale 1
and 2; ``--stages 5 --deltas 0,1/4 --dim-cap 8``) and the exact stdout of
``tower verify`` on that directory.  Each distinct catalog member and
stage is one file, so a stage repeated once ``--dim-cap`` stops growth
has no file of its own, and the maps name their spaces by these files.
Both commands run in process through ``cli.main``.  Regenerate only
when a change is meant to alter the outputs:

    PYTHONPATH=src:tests python -c "import test_tower_golden as t; t.write_golden()"
"""

import hashlib
import json
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path
from tempfile import TemporaryDirectory

from msn import io
from msn.cli import main
from msn.spaces import line_space

GOLDEN = Path(__file__).with_name("tower_golden.json")
SEEDS = (3, 99, 12345)


def _record(seed, tmp):
    """``{"files": {name: sha256}, "verify": stdout}`` of the tower of ``seed``, built under ``tmp``."""
    root = Path(tmp)
    root.mkdir(parents=True, exist_ok=True)
    catalog = []
    for scale in (1, 2):
        path = root / f"l{scale}.json"
        io.write_json(path, io.space_to_doc(line_space(scale)))
        catalog.append(str(path))
    out_dir = root / "tower"
    assert main(["--seed", str(seed), "--out", str(out_dir), "tower", "build", "--catalog", *catalog,
                 "--stages", "5", "--deltas", "0,1/4", "--dim-cap", "8"]) == 0
    out = StringIO()
    with redirect_stdout(out):
        assert main(["tower", "verify", str(out_dir)]) == 0
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.iterdir())}
    return {"files": files, "verify": out.getvalue()}


def write_golden():
    recs = {}
    for seed in SEEDS:
        with TemporaryDirectory() as tmp:
            recs[str(seed)] = _record(seed, tmp)
    GOLDEN.write_text(json.dumps(recs, indent=1, sort_keys=True) + "\n")


def test_tower_artifacts_and_verify_output_match_golden(tmp_path):
    recorded = json.loads(GOLDEN.read_text())
    assert sorted(recorded) == sorted(map(str, SEEDS))
    for seed in SEEDS:
        assert _record(seed, tmp_path / str(seed)) == recorded[str(seed)], seed
