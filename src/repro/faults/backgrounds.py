"""Data backgrounds and intra-word placements for word-oriented SRAMs.

The paper derives march tests on a bit-oriented memory model; real
embedded memories are word-oriented (W bits per address).  The
standard route to reuse a bit-oriented march on a W-bit memory (Li et
al.'s transparent test scheme for embedded word-oriented memories, and
van de Goor's data-background treatment before it) is to run the march
once per *data background*: a W-bit pattern ``B`` that maps the
march's symbolic values onto word values (``w0``/``r0`` operate on
``B``, ``w1``/``r1`` on its complement).

Two things make the word workload genuinely new rather than W parallel
copies of the bit workload:

* **intra-word coupling faults** -- aggressor and victim in *different
  bit lanes of the same word*.  A word operation writes every lane,
  so a solid background writes aggressor and victim the same value and
  the coupling effect is overwritten or never observed; only a
  background giving the two lanes *different* values exposes it.
* the **background set**: ``ceil(log2 W) + 1`` patterns (solid zero
  plus the power-of-two stripes) are enough to give every lane pair
  both equal and differing values somewhere in the set, which is the
  classical sufficiency argument for intra-word CFst/CFds (a.k.a.
  CFid) coverage.

This module provides the background sets, the normalization used by
every API that accepts ``backgrounds=``, and the word-aware placement
enumeration binding the paper's bit-level primitives both *across*
words (the classic inter-word layouts) and *within* one word (the new
intra-word lane layouts).
"""

from __future__ import annotations

from functools import lru_cache
from math import ceil, log2
from typing import List, Optional, Sequence, Tuple, Union

from repro.faults.values import Bit, flip, word_str

# NOTE: this module is a leaf over :mod:`repro.faults.values`;
# everything from :mod:`repro.sim` (placement enumeration) and
# :mod:`repro.memory` (instance binding) is imported at call time.
# Both packages import this module back -- a module-level import would
# run their package inits mid-way through this one.

#: A data background: one bit per lane, lane 0 (the lowest cell
#: address within a word, written first) first.
Background = Tuple[Bit, ...]

#: Accepted spellings of a background set: a set name, or an explicit
#: sequence of patterns (each a ``"0101"`` string or a bit sequence).
BackgroundsSpec = Union[str, Sequence[Union[str, Sequence[Bit]]]]

#: Named background sets accepted wherever ``backgrounds=`` is a string.
BACKGROUND_SETS: Tuple[str, ...] = ("standard", "marching", "solid")


def complement(background: Background) -> Background:
    """The lane-wise complement of a background pattern."""
    return tuple(flip(bit) for bit in background)


def background_str(background: Background) -> str:
    """Render a background as a compact lane word, e.g. ``"0101"``."""
    return word_str(background)


def normalize_background(
    pattern: Union[str, Sequence[Bit]], width: int
) -> Background:
    """Validate one background pattern against a word width.

    Accepts a ``"0101"`` string (leftmost character = lane 0) or any
    sequence of binary values.

    Raises:
        ValueError: on a non-binary lane or a width mismatch.
    """
    if isinstance(pattern, str):
        bits: List[Bit] = []
        for ch in pattern:
            if ch not in "01":
                raise ValueError(
                    f"invalid background {pattern!r}: lanes must be 0/1")
            bits.append(int(ch))
        background = tuple(bits)
    else:
        background = tuple(pattern)
        for bit in background:
            if bit not in (0, 1):
                raise ValueError(
                    f"invalid background lane {bit!r}: must be 0 or 1")
    if len(background) != width:
        raise ValueError(
            f"background {background_str(background) if background else '()'!s} "
            f"has {len(background)} lanes; word width is {width}")
    return background


def solid_backgrounds(width: int) -> Tuple[Background, ...]:
    """The two solid patterns (all zeros, all ones)."""
    _check_width(width)
    return ((0,) * width, (1,) * width)


def standard_backgrounds(width: int) -> Tuple[Background, ...]:
    """The ``ceil(log2 W) + 1`` classical background set.

    Solid zero plus one stripe pattern per address bit of the lane
    index: pattern *i* sets lane *k* to bit ``i-1`` of ``k``
    (``0101...``, ``0011...``, ``00001111...``).  For every lane pair
    ``(j, k)`` with ``j != k`` some stripe gives them different values
    (the stripe of any bit where ``j`` and ``k`` differ), which is what
    intra-word coupling coverage needs.  Width 1 yields the single
    background ``(0,)`` -- the bit-oriented workload unchanged.
    """
    _check_width(width)
    backgrounds: List[Background] = [(0,) * width]
    for stripe in range(ceil(log2(width)) if width > 1 else 0):
        backgrounds.append(
            tuple((lane >> stripe) & 1 for lane in range(width)))
    return tuple(backgrounds)


def marching_backgrounds(width: int) -> Tuple[Background, ...]:
    """The ``W + 1`` thermometer (marching-one) background set.

    Background *j* sets the first *j* lanes to one: solid zero, then a
    1-front marching through the word, ending at solid one.  Larger
    than the standard set but gives every *adjacent* transition its own
    pattern -- the conventional choice when lane-order-sensitive
    defects are suspected.
    """
    _check_width(width)
    return tuple(
        tuple(1 if lane < j else 0 for lane in range(width))
        for j in range(width + 1)
    )


_NAMED_SETS = {
    "standard": standard_backgrounds,
    "marching": marching_backgrounds,
    "solid": solid_backgrounds,
}


def resolve_backgrounds(
    spec: Optional[BackgroundsSpec], width: int
) -> Tuple[Background, ...]:
    """Resolve a ``backgrounds=`` argument to a validated pattern tuple.

    ``None`` resolves to :func:`standard_backgrounds`; a string names
    one of :data:`BACKGROUND_SETS`; any other sequence is normalized
    pattern by pattern (duplicates dropped, first occurrence wins).

    Raises:
        ValueError: on an unknown set name, invalid pattern or empty
            result.
    """
    _check_width(width)
    if spec is None:
        return standard_backgrounds(width)
    if isinstance(spec, str):
        try:
            return _NAMED_SETS[spec](width)
        except KeyError:
            raise ValueError(
                f"unknown background set {spec!r}; choose from "
                f"{BACKGROUND_SETS} or give explicit patterns") from None
    backgrounds: List[Background] = []
    for pattern in spec:
        background = normalize_background(pattern, width)
        if background not in backgrounds:
            backgrounds.append(background)
    if not backgrounds:
        raise ValueError("a word campaign needs at least one background")
    return tuple(backgrounds)


def _check_width(width: int) -> None:
    if width < 1:
        raise ValueError("word width must be positive")


# ----------------------------------------------------------------------
# Word-aware placements
# ----------------------------------------------------------------------

def word_role_placements(
    roles: int, words: int, width: int, lf3_layout: str = "straddle"
) -> List[Tuple[int, ...]]:
    """Role-to-cell assignments qualifying a fault on a word memory.

    Cells are flat addresses over a ``words x width`` array
    (``cell = word * width + lane``).  Two placement families are
    enumerated, mirroring the representative-order policy of
    :func:`repro.sim.placements.role_placements`:

    * **inter-word** -- every role in a distinct word (lane 0), using
      the bit-oriented relative-order enumeration over word indexes;
      this is the classic workload the paper's tests were derived for.
    * **intra-word** -- every role in a distinct *lane* of one word
      (the first and last word, as boundary insurance), using the same
      relative-order enumeration over lane indexes; these are the
      placements only data backgrounds can expose.

    At ``width == 1`` the intra-word family is empty and the inter-word
    family reduces exactly to the bit-oriented placements, which is
    what pins the width-1 wordization regression.

    Raises:
        ValueError: when neither family can host the role count.
    """
    from repro.sim.placements import role_placements

    _check_width(width)
    if words < 1:
        raise ValueError("word count must be positive")
    if roles == 1:
        cells = sorted({
            word * width + lane
            for word in {0, words - 1}
            for lane in {0, width - 1}
        })
        return [(cell,) for cell in cells]
    placements: List[Tuple[int, ...]] = []
    if words >= roles:
        for word_cells in role_placements(roles, words, lf3_layout):
            placements.append(
                tuple(word * width for word in word_cells))
    if width >= roles:
        for word in sorted({0, words - 1}):
            base = word * width
            for lanes in role_placements(roles, width, lf3_layout):
                placement = tuple(base + lane for lane in lanes)
                if placement not in placements:
                    placements.append(placement)
    if not placements:
        raise ValueError(
            f"a {words}x{width} word memory cannot host a {roles}-cell "
            f"fault in any word or lane layout")
    return placements


def intra_word_placements(
    roles: int, width: int, lf3_layout: str = "straddle"
) -> List[Tuple[int, ...]]:
    """Lane-only placements of a fault within a single word.

    The mapping that turns the paper's bit-level CFst/CFds (CFid)
    primitives into *intra-word* coupling faults: role lanes within one
    word, victim last, using the same relative-order policy as the
    cell placements.  Offset the returned lanes by ``word * width`` to
    bind a concrete word.

    Raises:
        ValueError: when the word is narrower than the role count.
    """
    from repro.sim.placements import role_placements

    _check_width(width)
    if width < roles:
        raise ValueError(
            f"a {width}-bit word cannot host {roles} distinct lanes")
    if roles == 1:
        return [(lane,) for lane in sorted({0, width - 1})]
    return role_placements(roles, width, lf3_layout)


def word_instances(
    fault, words: int, width: int, lf3_layout: str = "straddle"
) -> Tuple:
    """Bind *fault* to every qualifying word-memory placement.

    The word-mode sibling of
    :func:`repro.sim.batch.cached_instances`: same binding rules
    (victim-last role order), placements from
    :func:`word_role_placements`.  Memoized -- fault models and bound
    instances are frozen, so the shared tuple is safe to reuse across
    oracles, campaigns and worker processes.
    """
    return _cached_word_instances(fault, words, width, lf3_layout)


@lru_cache(maxsize=None)
def _cached_word_instances(
    fault, words: int, width: int, lf3_layout: str
) -> Tuple:
    from repro.sim.batch import bind_placements

    return bind_placements(
        fault,
        word_role_placements(fault.cells, words, width, lf3_layout))

