"""Wordizing bit-oriented march tests into per-background campaigns.

The paper's generator (and every test in :mod:`repro.march.known`)
produces *bit-oriented* march tests.  :func:`wordize` converts any of
them -- published, parsed or freshly generated -- into a word-oriented
campaign: one pass of the march per data background, with the march's
symbolic values mapped through each background
(:mod:`repro.faults.backgrounds`).

A :class:`WordizedTest` is a description, not a new execution engine:
each pass runs through the ordinary simulation seam -- the engine's
one runner, :func:`repro.sim.engine.run_march` with the pass's
``background=``, and the ``width=`` / ``backgrounds=`` parameters of
the coverage oracles -- so wordized qualification is exactly what
``qualify_test(..., width=W)`` computes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from repro.faults.backgrounds import (
    Background,
    BackgroundsSpec,
    background_str,
    complement,
    resolve_backgrounds,
)
from repro.faults.values import word_str
from repro.march.element import MarchElement
from repro.march.test import MarchTest


@dataclass(frozen=True)
class WordizedRun:
    """One background's pass of a wordized march test."""

    background: Background
    test: MarchTest

    def notation(self, ascii_only: bool = False) -> str:
        """The pass's notation with word values spelled out."""
        body = "; ".join(
            element_word_notation(el, self.background, ascii_only)
            for el in self.test.elements)
        return f"[bg={background_str(self.background)}] {body}"


@dataclass(frozen=True)
class WordizedTest:
    """A bit-oriented march test lifted to a word-oriented campaign.

    Attributes:
        base: the bit-oriented march test every pass replays.
        width: bits per word.
        backgrounds: the data backgrounds, one pass each, in run order.
    """

    base: MarchTest
    width: int
    backgrounds: Tuple[Background, ...]

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError("word width must be positive")
        for background in self.backgrounds:
            if len(background) != self.width:
                raise ValueError(
                    f"background {background_str(background)} does not "
                    f"fit width {self.width}")
        if not self.backgrounds:
            raise ValueError("a wordized test needs >= 1 background")

    @property
    def name(self) -> str:
        return f"{self.base.name} [w{self.width}]"

    @property
    def complexity(self) -> int:
        """Word operations per address over the whole campaign."""
        return self.base.complexity * len(self.backgrounds)

    @property
    def runs(self) -> Tuple[WordizedRun, ...]:
        """The per-background passes, in execution order."""
        return tuple(
            WordizedRun(background, self.base)
            for background in self.backgrounds)

    def __iter__(self) -> Iterator[WordizedRun]:
        return iter(self.runs)

    def __len__(self) -> int:
        return len(self.backgrounds)

    def notation(self, ascii_only: bool = False) -> str:
        """All passes, one per line."""
        return "\n".join(
            run.notation(ascii_only=ascii_only) for run in self.runs)

    def describe(self) -> str:
        return (
            f"{self.name} ({self.complexity}n over "
            f"{len(self.backgrounds)} backgrounds): "
            f"{self.base.notation()}")

    def qualify(
        self,
        faults,
        memory_size: int = 3,
        exhaustive_limit: int = 6,
        lf3_layout: str = "straddle",
        backend: str = "auto",
    ):
        """Coverage report of this campaign over *faults*.

        Convenience wrapper over :func:`repro.sim.coverage.qualify_test`
        with this test's width and backgrounds (imported lazily --
        :mod:`repro.sim` builds on :mod:`repro.march`, not the other
        way around).
        """
        from repro.sim.coverage import qualify_test

        return qualify_test(
            self.base.with_name(self.name), faults, memory_size,
            exhaustive_limit, lf3_layout, backend,
            width=self.width, backgrounds=self.backgrounds)


def element_word_notation(
    element: MarchElement,
    background: Background,
    ascii_only: bool = False,
) -> str:
    """Render one element with its word values under a background.

    ``⇑(r0,w1)`` under background ``01`` becomes ``⇑(r01,w10)``.
    """
    marker = element.order.ascii if ascii_only else element.order.symbol
    inverse = complement(background)
    parts = []
    for op in element.operations:
        if op.is_wait:
            parts.append("t")
        elif op.value is None:
            parts.append("r")
        else:
            pattern = background if op.value == 0 else inverse
            parts.append(f"{op.kind.value}{word_str(pattern)}")
    return f"{marker}({','.join(parts)})"


def wordize(
    test: MarchTest,
    width: int,
    backgrounds: Optional[BackgroundsSpec] = None,
) -> WordizedTest:
    """Lift a bit-oriented march test to a word campaign.

    Args:
        test: any bit-oriented march test (generator output, parsed
            notation, or an entry of :mod:`repro.march.known`).
        width: bits per word.
        backgrounds: a named set (``"standard"``, ``"marching"``,
            ``"solid"``) or explicit patterns; defaults to the
            ``ceil(log2 W) + 1`` standard set.

    Raises:
        ValueError: on an invalid width or background specification.
    """
    return WordizedTest(
        base=test,
        width=width,
        backgrounds=resolve_backgrounds(backgrounds, width),
    )
