"""Print one sha256 per artifact of three fixed-clock training runs.

Each run is `selcontrast train --fixed-clock --out-dir DIR --dump-selection
DIR/selection.json --dump-pseudo DIR/pseudo.csv` on one config:

- desk:  benchmark_config() as it stands;
- wide:  asymmetric noise, dim 64, hidden 512, MLP projection to 128;
- scale: --n 3000 --t-max 3 --t-finetune 3 --k 250.

The metrics, config, report, checkpoint, selection and pseudo-label files of
a run are then hashed. Two checkouts that print the same lines trained,
selected and fine-tuned bit for bit alike. The package is imported from the
`src` directory next to this script's directory.

Usage: python tools/identity_digest.py
"""
from __future__ import annotations

import contextlib
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


def main() -> int:
    sys.path.insert(0, str(SRC))
    from selcontrast.cli import cli_run

    with tempfile.TemporaryDirectory() as tmp:
        for name, flags in CONFIGS.items():
            out = Path(tmp) / name
            argv = ["train", "--fixed-clock", "--out-dir", str(out),
                    "--dump-selection", str(out / "selection.json"),
                    "--dump-pseudo", str(out / "pseudo.csv"), *flags]
            with contextlib.redirect_stdout(sys.stderr):  # train's summary line
                code = cli_run(argv)
            if code != 0:
                print(f"{name}: train exited with {code}", file=sys.stderr)
                return code
            for path in sorted(out.iterdir()):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{name:5s} {path.name:16s} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
