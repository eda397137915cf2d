"""Curve table for the finitely many exceptional cases.

Manin constants are analytic input (ratios of modular-form differentials)
and are carried here as fixture data from the published modular tables,
never computed.  Each entry records the reduced minimal model, the
constant when one is needed, and what the entry is for.  The conductor
of every model is re-verified by the test suite against the label.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .weierstrass import WeierstrassModel


@dataclass(frozen=True)
class FixtureEntry:
    label: str
    model: WeierstrassModel
    manin: Optional[int]  # None when unknown / not needed
    note: str


def _W(*a) -> WeierstrassModel:
    return WeierstrassModel.from_ainvs(a)


FIXTURES: dict[str, FixtureEntry] = {
    e.label: e
    for e in [
        # Z/2+Z/4 sweep: the single curve with 8 not dividing C; C*M = 8
        FixtureEntry("15a3", _W(1, 1, 1, -5, 2), 2, "C=4; the one 8|C failure of the Z/2+Z/4 family"),
        # Z/4 beta-power table
        FixtureEntry("15a7", _W(1, 1, 1, -80, 242), 2, "beta=-2^8; good reduction at 2, C=1"),
        FixtureEntry("15a8", _W(1, 1, 1, 0, 0), 4, "beta=-1 member of the Z/4 family"),
        FixtureEntry("17a4", _W(1, -1, 1, -1, 0), 4, "beta=1 member of the Z/4 family"),
        FixtureEntry("24a3", _W(0, -1, 0, -64, 220), 1, "beta=-2^6, C=2"),
        FixtureEntry("24a4", _W(0, -1, 0, 1, 0), 2, "beta=-2^2, C=2"),
        FixtureEntry("32a4", _W(0, 0, 0, -11, 14), 2, "beta=2^4, C=2"),
        FixtureEntry("40a3", _W(0, 0, 0, -2, 1), 2, "beta=2^2, C=2"),
        # Z/2+Z/2 exceptions: C = M = 2
        FixtureEntry("17a2", _W(1, -1, 1, -6, -4), 2, "full 2-torsion exception, C=2"),
        FixtureEntry("32a2", _W(0, 0, 0, -1, 0), 2, "full 2-torsion exception, C=2"),
        # Z/2 cases with 2 | M
        FixtureEntry("17a3", _W(1, -1, 1, -91, -310), 2, "2|M case of the B=1 branch"),
        FixtureEntry("32a3", _W(0, 0, 0, -11, -14), 2, "2|M case of the B=1 branch"),
        FixtureEntry("80a2", _W(0, 0, 0, -2, -1), 2, "A=-3, B=1: A^2-4 = 5 prime, 2|M"),
        FixtureEntry("128b2", _W(0, 1, 0, -2, -2), 2, "A=-2 member of y^2=x^3+Ax^2-x"),
        FixtureEntry("128d2", _W(0, -1, 0, -2, 2), 2, "A=2 member of y^2=x^3+Ax^2-x"),
        FixtureEntry("80b4", _W(0, -1, 0, -41, 116), 2, "A=11: A^2+4 = 5^3, the non-prime case"),
        FixtureEntry(
            "272b2",
            _W(0, 0, 0, -91, 330),
            None,
            "A=15, B=-16: A^2+64 = 17^2 gives full 2-torsion, 4 | C = 8 "
            "(I4*, c = 4 at 2; I2, c = 2 at 17); c_2 = 4 is Tate's I4* at 2, and the "
            "published C_2 = 2 belongs to another curve of its isogeny class",
        ),
        # Z/2+Z/4 counting-condition exceptions (Tamagawa still suffices,
        # 8 | C, for all but 15a3 above)
        FixtureEntry("15a1", _W(1, 1, 1, -10, -10), None, "counting exception, C=8"),
        FixtureEntry("21a1", _W(1, 0, 0, -4, -1), None, "counting exception, C=8"),
        FixtureEntry("24a1", _W(0, -1, 0, -4, 4), None, "counting exception, C=8"),
        FixtureEntry("48a3", _W(0, 1, 0, -24, 36), None, "alpha=1, beta=2: C_2 = C_3 = 4"),
        FixtureEntry("120a2", _W(0, 1, 0, -20, 0), None, "counting exception, C=32"),
        FixtureEntry("240a3", _W(0, -1, 0, -200, 1152), None, "counting exception; 240-pair labels follow table order"),
        FixtureEntry("240d5", _W(0, 1, 0, -2160, 37908), None, "counting exception; 240-pair labels follow table order"),
        FixtureEntry("336e4", _W(0, -1, 0, -784, 8704), None, "counting exception, C=32"),
        # the conductor-27 three-isogeny chain; 3 | M on the length-4 chain
        FixtureEntry("27a4", _W(0, 0, 1, -30, 63), 3, "start of the unique length-4 3-isogeny chain"),
        FixtureEntry("27a3", _W(0, 0, 1, 0, 0), 1, "second curve of the 27-chain"),
        FixtureEntry("27a1", _W(0, 0, 1, 0, -7), 1, "third curve of the 27-chain"),
        FixtureEntry("27a2", _W(0, 0, 1, -270, -1708), None, "terminal curve of the 27-chain"),
    ]
}

_BY_MODEL = {entry.model: entry for entry in FIXTURES.values()}


def fixture_for_minimal_model(m: WeierstrassModel):
    """The fixture entry of the curve whose reduced minimal model is m, if
    any; that model is unique in its isomorphism class, so it keys the table."""
    return _BY_MODEL.get(m)
