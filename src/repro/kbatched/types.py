"""Tag types mirroring KokkosBatched's template parameters.

The C++ API selects behaviour with tag template parameters
(``KokkosBatched::Trans::NoTranspose`` etc.); here they are enums passed as
keyword arguments, keeping ported call sites recognizable.
"""

from __future__ import annotations

import enum


class Uplo(enum.Enum):
    """Which triangle of a symmetric matrix is stored (``ArgUplo``)."""

    LOWER = "L"
    UPPER = "U"


class Trans(enum.Enum):
    """Transposition mode of an operand (``ArgTrans``)."""

    NO_TRANSPOSE = "N"
    TRANSPOSE = "T"


class Side(enum.Enum):
    """Side of a triangular multiply/solve."""

    LEFT = "L"
    RIGHT = "R"


class Diag(enum.Enum):
    """Whether a triangular matrix has an implicit unit diagonal."""

    UNIT = "U"
    NON_UNIT = "N"


class Algo(enum.Enum):
    """Algorithm variant (``ArgAlgo``).

    The paper only exercises the ``Unblocked`` variants (cache blocking is
    mentioned as a possible future optimization for ``gbtrs``).  Only
    :func:`~repro.kbatched.getrf` has a ``Blocked`` variant: a right-looking
    blocked LU.
    """

    UNBLOCKED = "Unblocked"
    BLOCKED = "Blocked"

