"""The sha256 of each pinned artifact at seed 0, written once.

Each table holds what one command writes under desk's config from
perfbench/workloads.py, whose `plan_sha256` is the plan pin. `KDE_PLACE`
is desk's `place` with its distribution replaced by `kde data.txt`, the
data being `KDE_DATA`. `OPERATOR` pins one of desk's operators, which no
command writes, through `csr_sha256`. test_pins.py checks every table in
process, and each CI step imports the tables it checks.
"""

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

PLACE = {
    "plan.json": WORKLOADS["desk"].plan_sha256,
    # the expected-coverage map, the paper's probabilistic coverage metric
    "coverage-expected.txt": "7e0c087f2d454618e899ef4c2b9556a96fcf209115100faa698b1cce09f5810a",
    # each sensor's newly covered releases, one sparse table for all sensors
    "coverage-sensors.txt": "f2d0793dbd7b197b8a150bf252be6e281c42f9d24933632549ff6b85769e864a",
}
BUILD = {
    "manifest.json": "f90ddd0b935acd7d08607e6dbeee372b9700f6d8275c643d513f704cbf0bf3d0",
}
OPERATOR = {
    # the middle scenario's operator (int32 indptr and indices, float64 data)
    3: "161e6f91d3f1e1b5e93b3054ad6fbc9a1ed0abbc93f068e0a02e8ece59380a50",
}
VALIDATE = {
    # 5 reference substeps of dt / 5 per operator step
    "validation.json": "91ce2e57d4c51038443ded853aed68f011a33b3069ee8d26119d3864c2fce49e",
}
PROPAGATE = {
    "concentration-000.txt": "229db7cc73014c91332f3f33d5ad66945e9aa56560eae1c8c2fca141202ddb90",
    # scenario 4 samples only its own CDF point, the one pin where that point is not the first
    "concentration-004.txt": "3ff9bcdbc5ae2606d83789f22edb5e6df14b280396f0130c660b3fab50f2b78e",
}
CONVERGE = {
    # --samples 3 5 7
    "convergence.json": "136ae3bf2207a62ee8ef4fb12c594ed9389635e452575571d5fc5e62f7315747",
}
KDE_DATA = "0.44\n0.47\n0.49\n0.5\n0.52\n0.55\n0.58\n"
KDE_PLACE = {
    # the KDE fit, its inverse CDF and its hat weights, end to end
    "plan.json": "c30f98819ad71c0e033d3c807fa5882c4ff506df8abd6ccdc722d1ca1d381d9c",
}


def mismatches(directory, *tables) -> str | None:
    """One '<name> sha256 <digest>' line per file of the tables in
    `directory` whose bytes miss their pin, or None when all match."""
    lines = []
    for table in tables:
        for name, pinned in table.items():
            digest = hashlib.sha256((Path(directory) / name).read_bytes()).hexdigest()
            if digest != pinned:
                lines.append(f"{name} sha256 {digest}")
    return "\n".join(lines) or None


def csr_sha256(matrix) -> str:
    """The sha256 of a CSR matrix's indptr, indices and data bytes, in that
    order."""
    digest = hashlib.sha256()
    for array in (matrix.indptr, matrix.indices, matrix.data):
        digest.update(array.tobytes())
    return digest.hexdigest()
