"""Print one sha256 per artifact of three fixed-clock training runs, or check
them against a recorded digest file.

Each run is `selcontrast train --fixed-clock --out-dir DIR --dump-selection
DIR/selection.json --dump-pseudo DIR/pseudo.csv` on one config:

- desk:  the defaults (RunConfig());
- wide:  asymmetric noise, dim 64, hidden 512, MLP projection to 128;
- scale: --n 3000 --t-max 3 --t-finetune 3 --k 250.

The metrics, config, report, checkpoint, selection and pseudo-label files of
a run are then hashed. Two checkouts that print the same lines trained,
selected and fine-tuned bit for bit alike. The output starts with two `#`
lines naming the numpy and BLAS builds, because the bits can depend on them.
The package is imported from the `src` directory next to this script's
directory.

Usage:
    python tools/identity_digest.py > tools/identity_digests.txt   # record
    python tools/identity_digest.py --check tools/identity_digests.txt

--check exits 0 when every digest line matches the file, and 1 with the
differing lines and both environments' numpy and BLAS versions when not.
"""
from __future__ import annotations

import argparse
import contextlib
import difflib
import hashlib
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CONFIGS = {
    "desk": [],
    "wide": ["--noise-kind", "asymmetric", "--dim", "64", "--hidden-dim", "512",
             "--proj-dim", "128", "--projection", "mlp"],
    "scale": ["--n", "3000", "--t-max", "3", "--t-finetune", "3", "--k", "250"],
}


def environment() -> list[str]:
    """The `#` header lines: the numpy version and the BLAS numpy was built with."""
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return [f"# numpy {np.__version__}", f"# blas {blas_name}"]


def digest_lines() -> list[str]:
    """One `config artifact sha256` line per artifact; raises when a run fails."""
    sys.path.insert(0, str(SRC))
    from selcontrast.cli import cli_run

    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, flags in CONFIGS.items():
            out = Path(tmp) / name
            argv = ["train", "--fixed-clock", "--out-dir", str(out),
                    "--dump-selection", str(out / "selection.json"),
                    "--dump-pseudo", str(out / "pseudo.csv"), *flags]
            with contextlib.redirect_stdout(sys.stderr):  # train's summary line
                code = cli_run(argv)
            if code != 0:
                raise RuntimeError(f"{name}: train exited with {code}")
            for path in sorted(out.iterdir()):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                lines.append(f"{name:5s} {path.name:16s} {digest}")
    return lines


def check(recorded_path: Path, lines: list[str]) -> int:
    recorded = recorded_path.read_text().splitlines()
    expected = [line for line in recorded if not line.startswith("#")]
    if lines == expected:
        return 0
    sys.stdout.writelines(line + "\n" for line in difflib.unified_diff(
        expected, lines, str(recorded_path), "this checkout", lineterm=""))
    recorded_env = [line[2:] for line in recorded if line.startswith("#")]
    print(f"recorded under: {', '.join(recorded_env) or 'no environment header'}")
    print(f"this run under: {', '.join(line[2:] for line in environment())}")
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", type=Path, metavar="FILE",
                        help="compare with a recorded digest file instead of printing")
    args = parser.parse_args(argv)
    try:
        lines = digest_lines()
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.check:
        return check(args.check, lines)
    print("\n".join(environment() + lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
