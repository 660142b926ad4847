"""Shared differential-test harness.

Every suite that claims two execution paths are *identical* -- sparse
kernel vs dense oracle, parallel campaign vs serial campaign, word
memory vs bit memory -- goes through the helpers here instead of
hand-rolling its own comparison.
One definition of "identical" (every observable report field,
witness identity included) keeps the suites honest with each other and
makes qualifying the next backend a one-liner.
"""

import time

import hypothesis.strategies as st

from repro.faults.operations import read, wait, write
from repro.march.element import AddressOrder, MarchElement
from repro.march.test import MarchTest
from repro.sim.backends import backend_names
from repro.sim.coverage import qualify_test
from repro.sim.supervisor import SupervisorPolicy

#: The suites' supervisor policy: no backoff sleeps (retries should be
#: instant under test; determinism does not depend on the delays) and
#: a chunk budget generous enough for a loaded 1-CPU runner, so a stuck
#: worker fails its test instead of hanging the job.
FAST = SupervisorPolicy(backoff_base=0.0, timeout=120.0)


def alternative_backends():
    """Every registered backend to pin against the dense oracle.

    Derived from the live registry, not a hard-coded list: registering
    a new simulation kernel automatically enrolls it in every
    differential suite built on :func:`assert_backends_identical`.
    """
    return tuple(
        name for name in backend_names()
        if name not in ("auto", "dense"))


def best_seconds(call, repeats=1):
    """The fastest wall time of *repeats* calls of *call*.

    Speed-floor tests time the fast side best-of-three: host noise
    there could fail a floor, while noise on the slow reference side
    only widens the margin.
    """
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def report_key(report):
    """Every observable field of a coverage report, as a plain tuple.

    Witness *identity* is part of the contract: an alternative backend
    must report the same escaping instance, resolution and (in word
    mode) data background, not merely the same coverage ratio.
    """
    return (
        report.test_name,
        report.total,
        report.coverage,
        report.contexts_simulated,
        list(report.detected_names),
        [fault.name for fault in report.detected],
        [
            (record.fault.name, record.instance.name,
             record.resolution, record.background)
            for record in report.escapes
        ],
    )


def assert_backends_identical(
    test, faults, size=3, layout="straddle",
    width=1, backgrounds=None, exhaustive_limit=6, backends=None,
):
    """Pin every registered backend byte-for-byte against the dense
    oracle.

    Works on both memory models: the bit path (default) and the
    word-oriented path (``width > 1`` or explicit *backgrounds*).
    *backends* defaults to :func:`alternative_backends` -- the live
    registry minus ``auto``/``dense``.  Returns the dense report so
    callers can make further assertions.
    """
    if backends is None:
        backends = alternative_backends()
    dense = qualify_test(
        test, faults, size, exhaustive_limit, layout, "dense",
        width, backgrounds)
    expected = report_key(dense)
    for backend in backends:
        candidate = qualify_test(
            test, faults, size, exhaustive_limit, layout, backend,
            width, backgrounds)
        assert report_key(candidate) == expected, \
            f"backend {backend!r} diverged from dense"
    return dense


def entry_dicts(result):
    """A campaign result's timing-free JSON form, entry by entry."""
    return [entry.to_dict() for entry in result.entries]


def assert_campaigns_identical(result_a, result_b):
    """Pin two campaign runs (e.g. serial vs parallel) entry-for-entry."""
    assert entry_dicts(result_a) == entry_dicts(result_b)


def stratified(faults, count):
    """An evenly spaced sample preserving fault-list order."""
    if len(faults) <= count:
        return list(faults)
    step = len(faults) // count
    return list(faults[::step][:count])


_bits = st.integers(min_value=0, max_value=1)


@st.composite
def random_marches(draw):
    """Arbitrary march tests: waits, expectation-free and even
    *inconsistent* reads included -- differential suites must agree on
    any test, not only on fault-free-consistent ones."""
    elements = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        ops = []
        for _ in range(draw(st.integers(min_value=1, max_value=5))):
            choice = draw(st.integers(min_value=0, max_value=3))
            if choice == 0:
                ops.append(write(draw(_bits)))
            elif choice == 1:
                ops.append(read(draw(_bits)))
            elif choice == 2:
                ops.append(read(None))
            else:
                ops.append(wait())
        elements.append(MarchElement(
            draw(st.sampled_from(list(AddressOrder))), tuple(ops)))
    return MarchTest("random march", tuple(elements))


# ---------------------------------------------------------------------------
# Supervisor toy workers (module-level so worker processes can import
# them by qualified name; cross-attempt state lives in marker files
# because retries may land in different processes)
# ---------------------------------------------------------------------------

def toy_square(x):
    return x * x


def toy_sleep(x, seconds):
    import time
    time.sleep(seconds)
    return x


def toy_crash_until(x, marker_path, crashes):
    """``os._exit`` the worker until *crashes* attempts have died."""
    import os
    with open(marker_path, "a") as handle:
        handle.write("x")
    if os.path.getsize(marker_path) <= crashes:
        os._exit(1)
    return x


def toy_fail_until(x, marker_path, failures):
    """Raise until *failures* attempts have failed, then succeed."""
    import os
    with open(marker_path, "a") as handle:
        handle.write("x")
    if os.path.getsize(marker_path) <= failures:
        raise RuntimeError(f"transient failure #{x}")
    return x


def toy_hang_until(x, marker_path, hangs, seconds):
    """Sleep *seconds* until *hangs* attempts have hung."""
    import os
    import time
    with open(marker_path, "a") as handle:
        handle.write("x")
    if os.path.getsize(marker_path) <= hangs:
        time.sleep(seconds)
    return x


def toy_require_flag(x, ok):
    """Deterministic failure unless called with the fallback flag."""
    if not ok:
        raise RuntimeError("needs fallback arguments")
    return x
