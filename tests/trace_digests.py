"""sha256 digests of the artifacts of the shipped scenarios.

Runs `hfsense run` on each of the four shipped scenarios, `calibrate` on
driven_lowspeed and `equivalence` on lowspeed, in process, into a temporary
directory, and prints one line per artifact: its digest and its name
(`<verb>/<scenario>/<file>`).  A refactor that claims to keep behaviour
prints the same lines before and after:

    python tests/trace_digests.py > before.txt   # on the parent commit
    python tests/trace_digests.py > after.txt    # on the change
    diff before.txt after.txt

It imports hfsense from the `src` directory next to this file's, so each
checkout digests its own code.  The digests are specific to the host: the
trace's last bits depend on the platform's libm (sin, cos, atan2) and on the
numpy build, so they are compared between commits on one host only.  For
that reason this script is not a test (pytest does not collect it) and no
CI step runs it.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hfsense.cli import main  # noqa: E402

# (verb, scenario, artifacts): each `run` writes trace.csv and summary.json
RUNS = [
    *[("run", name, ("trace.csv", "summary.json"))
      for name in ("lowspeed", "driven_lowspeed", "reversal", "standstill")],
    ("calibrate", "driven_lowspeed", ("summary.json",)),
    ("equivalence", "lowspeed", ("summary.json",)),
]


def digests(workdir: Path):
    """(name, sha256 hex digest) of each artifact of RUNS, run in workdir."""
    for verb, name, artifacts in RUNS:
        out = workdir / verb / name
        argv = ["--config", str(ROOT / "scenarios" / f"{name}.scenario"),
                "--out", str(out), verb]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main(argv)
        if rc not in (0, 1):
            raise SystemExit(f"hfsense {' '.join(argv)} exited with {rc}")
        for artifact in artifacts:
            data = (out / artifact).read_bytes()
            yield f"{verb}/{name}/{artifact}", hashlib.sha256(data).hexdigest()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name, digest in digests(Path(tmp)):
            print(f"{digest}  {name}")
