"""The sha256 of each pinned artifact at seed 0, written once.

Each table holds what one command writes under desk's config from
perfbench/workloads.py, whose `plan_sha256` is the plan pin. `OUTLET_PLACE`
is desk's `place` with `outlets = x+ y-` added, so each operator carries the
absorbing exit state n, and `OUTLET_EXIT_PAIRS` counts, per scenario, the
releases a sensor at n detects. `KDE_PLACE` is desk's `place` with its
distribution replaced by `kde data.txt`, the data being `KDE_DATA`.
`CONVERGE` and `CONVERGE_LADDER` are desk's `converge` on two sample
ladders, and `KDE_CONVERGE` the longer ladder under the KDE.
`FINE_BUILD` holds one file of fine's `build`, and `FINE_VALIDATE` the
manifest of that `build` and what fine's `validate` writes. `OPERATOR` pins one of desk's
operators, which no command writes, through `csr_sha256`, and
`OPERATOR_AT_BOUND` one built at its own admissible dt. test_pins.py
checks every table in process, and each CI step imports the tables it
checks.
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
    # the exported flow ensemble, one field file per scenario
    "field-000.txt": "7666e988f66db11078a30d4e5fa08e7f452eea3e9855e763f8de467e247b5922",
    "field-001.txt": "4ddede2688a84b637b42afd78af7f5adf2747f476c81e91f746e8d62906b53eb",
    "field-002.txt": "d81b154fa309ed87856f6fc769952df49b3b3e57fee19b7d0a1aa97efdf79e16",
    "field-003.txt": "a044147378776aba55f1e0a0c465f7647e303dafac6bf1412cf9d04d75e825fc",
    "field-004.txt": "cea8e20f12b3f5d10f76a7ad3104f92685a4557be88f45a2d4cd436902112fab",
    "field-005.txt": "f6053ed1486950d1e3d216f0bd34de1067f27d202a505b4c2a858ef827160ed4",
    "field-006.txt": "67f656fcac3a4c28dfe01b73c9c07932381c359f1119ee8b02e590ea97008112",
}
FINE_BUILD = {
    # fine's middle scenario: 22 500 rows whose distinct magnitudes span
    # several of the writer's blocks, which desk's fields never do
    "field-003.txt": "a22de6f8a027c13697672a2e2f7ebdb5afdd887d6f000cbe1fb0b01a75c96241",
}
FINE_VALIDATE = {
    "manifest.json": "844ccf6ffcbcc06886ec91f726cbf8b58d60398200123497efa67afb5458e59b",
    # seven scenarios on 22 500 cells, each made, compared and dropped in turn
    "validation.json": "a67569fc1514f9a7e25f70810b1546bd2c39ea854e8ed56cf1c0d0d63cbec67b",
}
OPERATOR = {
    # the middle scenario's operator (int32 indptr and indices, float64 data)
    3: "161e6f91d3f1e1b5e93b3054ad6fbc9a1ed0abbc93f068e0a02e8ece59380a50",
}
OPERATOR_AT_BOUND = {
    # scenario 5 at its own admissible dt: 6 rows sum above 1 by rounding and
    # take the hot-row rescale, in place, so every row keeps sorted indices;
    # the sorted form of the operator a sparse product once rescaled, which
    # left 885 of its 900 rows unsorted
    5: "2501aba82c07620f907fbf3f399dccc3e0caea46bf5ec8a9db48f1c23386daad",
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
CONVERGE_LADDER = {
    # --samples 2 3 5 7 9: level 9 alone samples CDF points 0.4 and 0.6
    "convergence.json": "474eff5af347b60a1290b81437f284e9b73bda992d1dd1ed4f7edb6948742fa8",
}
OUTLET_PLACE = {
    # the plan and sensor table hold desk's own bytes: no sensor lands on
    # the exit, but the exit's pairs enter every greedy round
    "plan.json": WORKLOADS["desk"].plan_sha256,
    "coverage-sensors.txt": PLACE["coverage-sensors.txt"],
    "coverage-expected.txt": "02d67cbf92f840423c9232d9b5be136ea5d8c1b919002b3171079cff18bd1038",
}
# the exit column's band window spans the whole operator
OUTLET_EXIT_PAIRS = (29, 60, 64, 66, 69, 74, 92)
KDE_DATA = "0.44\n0.47\n0.49\n0.5\n0.52\n0.55\n0.58\n"
KDE_PLACE = {
    # the KDE fit, its inverse CDF and its hat weights, end to end
    "plan.json": "c30f98819ad71c0e033d3c807fa5882c4ff506df8abd6ccdc722d1ca1d381d9c",
}
KDE_CONVERGE = {
    # --samples 2 3 5 7 9: the KDE's weights on every level of the ladder
    "convergence.json": "c33ad2fb3d854f0cd4fe8fa0542526523744a5a6d64786dbcf419dd274a16554",
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
