"""March-test fault simulation.

* :mod:`repro.sim.placements` -- enumerating the cell-role placements a
  fault class must be detected under;
* :mod:`repro.sim.batch` -- memoized placement/instance binding and the
  bit-packed/chunking fast path shared by the oracles;
* :mod:`repro.sim.backends` -- the simulation-backend registry:
  capability-queried ``"auto"`` resolution, the unified
  ``make_memory`` construction seam and the placement-batch protocol;
* :mod:`repro.sim.engine` -- executing a march test against a faulty
  memory, including the up/down resolutions of ``⇕`` elements;
* :mod:`repro.sim.sparse` -- the size-independent sparse kernel:
  simulate only a fault's bound cells plus one representative per
  homogeneous segment;
* :mod:`repro.sim.bitpar` -- the bit-parallel kernel: pack up to 64
  placements of one fault into integer bit-lanes and simulate each
  march element once per packed word;
* :mod:`repro.sim.coverage` -- the coverage oracle: does a march test
  detect every instance of every fault in a list?
* :mod:`repro.sim.campaign` -- batched multi-test × multi-list ×
  multi-geometry qualification, fanned out across processes.
"""

from repro.sim.placements import role_placements, order_resolutions
from repro.sim.backends import (
    Backend,
    PlacementBatch,
    backend_names,
    get_backend,
    kernel_supported,
    make_memory,
    register_backend,
    resolve_backend,
)
from repro.sim.sparse import SparseMemory
from repro.sim.engine import (
    DetectionSite,
    run_grid,
    run_march,
    detects_instance,
)
from repro.sim.coverage import (
    CoverageOracle,
    CoverageReport,
    qualify_test,
)
from repro.sim.campaign import (
    CampaignEntry,
    CampaignJob,
    CampaignResult,
    CoverageCampaign,
)

__all__ = [
    "role_placements",
    "order_resolutions",
    "Backend",
    "PlacementBatch",
    "backend_names",
    "get_backend",
    "kernel_supported",
    "make_memory",
    "register_backend",
    "resolve_backend",
    "SparseMemory",
    "DetectionSite",
    "run_grid",
    "run_march",
    "detects_instance",
    "CoverageOracle",
    "CoverageReport",
    "qualify_test",
    "CampaignEntry",
    "CampaignJob",
    "CampaignResult",
    "CoverageCampaign",
]
