"""The three low-power PAM-3 frame encodings: DBI, MF, and SORT.

All three work on whole 16-symbol frames (both lines jointly) and remap
levels through one of the six bijections of {-1, 0, +1}, picked by the
frame's level counts, so each decoder only needs the flag bits to undo
the mapping:

* DBI inverts every level (-1 <-> +1, 0 fixed) when -1 symbols outnumber
  +1 symbols; 1 flag bit says whether it did.
* MF transposes the most frequent level with +1 (the zero-power level);
  2 flag bits name that level.
* SORT remaps levels by frequency rank, least frequent to -1 and most
  frequent to +1; 3 flag bits carry the permutation number.

Each encoding is written once, as a rule and a table: flag_of_counts picks
the flag from a frame's counts of (-1, 0, +1), and FLAG_IMAGES[alg][flag]
is the bijection the flag stands for, an image triple whose one handle is
its index into PERMUTATION_IMAGES. encode and decode, via inverse_images,
apply the two to one frame; bulk derives its tables from them at import.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum

from .core import Pam3Frame, count_symbols
from .errors import InvalidFlag
from .power import termination_power


class Algorithm(Enum):
    """Algorithm(x) takes a member or its exact name; anything else is one ValueError."""

    NONE = "NONE"
    DBI = "DBI"
    MF = "MF"
    SORT = "SORT"

    @classmethod
    def _missing_(cls, value):
        names = ", ".join(cls.__members__)
        raise ValueError(f"unknown algorithm {value!r}; expected one of {names}")


# The six bijections of {-1, 0, +1} as image triples (image of -1, image
# of 0, image of +1), indexed in lexicographic order of the triple. The
# flag of a SORT frame is an index into this table.
PERMUTATION_IMAGES = (
    (-1, 0, 1),
    (-1, 1, 0),
    (0, -1, 1),
    (0, 1, -1),
    (1, -1, 0),
    (1, 0, -1),
)

# The bijection each flag value stands for: FLAG_IMAGES[alg][flag]. DBI's
# flag 1 inverts, MF's flag names the level (-1, 0, +1 in turn) it swaps
# with +1, and a SORT flag indexes PERMUTATION_IMAGES.
FLAG_IMAGES = {
    Algorithm.NONE: ((-1, 0, 1),),
    Algorithm.DBI: ((-1, 0, 1), (1, 0, -1)),
    Algorithm.MF: ((1, 0, -1), (-1, 1, 0), (-1, 0, 1)),
    Algorithm.SORT: PERMUTATION_IMAGES,
}

# Largest flag value each algorithm emits: EncodedFrame and bulk.check_flags
# refuse anything above. FLAG_WIDTH is the number of flag wires it takes.
MAX_FLAG = {alg: len(images) - 1 for alg, images in FLAG_IMAGES.items()}
FLAG_WIDTH = {alg: limit.bit_length() for alg, limit in MAX_FLAG.items()}


@dataclass(frozen=True)
class EncodedFrame:
    """A converted frame plus the flag bits needed to undo the conversion."""

    frame: Pam3Frame
    algorithm: Algorithm
    flag: int

    def __post_init__(self):
        object.__setattr__(self, "algorithm", Algorithm(self.algorithm))
        limit = MAX_FLAG[self.algorithm]
        if not 0 <= operator.index(self.flag) <= limit:
            raise InvalidFlag(f"{self.algorithm.value} flag must be 0..{limit}, got {self.flag}")


def _map_frame(frame: Pam3Frame, images: tuple[int, int, int]) -> Pam3Frame:
    table = {-1: images[0], 0: images[1], 1: images[2]}
    return Pam3Frame(
        tuple(table[s] for s in frame.line_a),
        tuple(table[s] for s in frame.line_b),
    )


def inverse_images(images: tuple[int, int, int]) -> tuple[int, int, int]:
    """The image triple of the inverse bijection: level v comes from images.index(v)."""
    return tuple(images.index(v) - 1 for v in (-1, 0, 1))


def flag_of_counts(counts: tuple[int, int, int], algorithm: Algorithm) -> int:
    """The flag algorithm picks for a frame holding counts of (-1, 0, +1).

    MF's ties prefer +1, then 0, then -1, so a tie involving +1 keeps the
    identity. SORT ranks the levels by a stable ascending sort of the counts
    in (-1, 0, +1) order, so ties resolve deterministically.
    """
    algorithm = Algorithm(algorithm)
    if algorithm is Algorithm.NONE:
        return 0
    if algorithm is Algorithm.DBI:
        return int(counts[0] > counts[2])  # -1 symbols outnumber +1 symbols
    if algorithm is Algorithm.MF:
        best = max(counts)
        return max(i for i in range(3) if counts[i] == best)
    order = sorted(range(3), key=lambda i: counts[i])  # SORT
    images = [0, 0, 0]
    for rank, level_index in enumerate(order):
        images[level_index] = rank - 1
    return PERMUTATION_IMAGES.index(tuple(images))


def encode(frame: Pam3Frame, algorithm: Algorithm) -> EncodedFrame:
    """Encode with any algorithm; NONE passes the frame through (flag=0)."""
    algorithm = Algorithm(algorithm)
    flag = flag_of_counts(count_symbols(frame).as_tuple(), algorithm)
    return EncodedFrame(_map_frame(frame, FLAG_IMAGES[algorithm][flag]), algorithm, flag)


def decode(encoded: EncodedFrame) -> Pam3Frame:
    """Decode any EncodedFrame through the inverse of its flag's bijection."""
    return _map_frame(encoded.frame, inverse_images(FLAG_IMAGES[encoded.algorithm][encoded.flag]))


def brute_force_best_permutation(frame: Pam3Frame) -> tuple[int, float]:
    """(index into PERMUTATION_IMAGES, power) of a level bijection with
    minimal termination power, trying all six.

    Deliberately independent of flag_of_counts: it remaps the frame and
    measures the result for every candidate. Ties go to the lowest index.
    """
    powers = [termination_power(_map_frame(frame, images)) for images in PERMUTATION_IMAGES]
    best = min(powers)
    return powers.index(best), best
